"""Acceptance criteria, one test each, with a pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines; every tolerance below is pinned, nothing is calibrated at test time.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from iqpe import emulator as em
from iqpe import protocol as pr
from iqpe import scenarios as sc
from iqpe.cli import main as cli_main
from iqpe.qfi import ParameterizedDynamics, iqpe_qfi, qfi_upper_bounds, sqpe_qfi
from iqpe.statekit import PureState
from oracles import expectation, number_operator, polarization_state, stokes_operators


def _report(num: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num} {status}: {description}{suffix}")
    assert passed, f"criterion {num} failed: {description}{suffix}"


def _rel_ok(got: float, want: float, rtol: float, atol: float = 1e-9) -> bool:
    return abs(got - want) <= rtol * max(abs(got), abs(want)) + atol


def random_probe(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return PureState(amps / np.linalg.norm(amps))


def test_criterion_1_closed_form_qfi_maps():
    # the engine against each map record and against the closed forms
    # written out here, so neither can drift on its own
    start = time.perf_counter()
    all_match = True
    s1, _, _ = stokes_operators()
    dyn_pol = ParameterizedDynamics(s1)
    for theta, phi, map_s, map_i in sc.birefringence_qfi_map(32).tolist():
        probe = polarization_state(sc.SpherePoint(theta, phi))
        closed_s = 4.0 - 4.0 * math.sin(theta) ** 2 * math.cos(phi) ** 2
        got_s, got_i = sqpe_qfi(dyn_pol, probe), iqpe_qfi(dyn_pol, probe)
        if not (
            _rel_ok(got_s, closed_s, 1e-6) and _rel_ok(got_s, map_s, 1e-6)
            and _rel_ok(got_i, 4.0, 1e-6) and _rel_ok(got_i, map_i, 1e-6)
        ):
            all_match = False
    for order in (1, 4, 10):
        ladder = sc.modal_ladder(order)
        dyn = ParameterizedDynamics(ladder.lz)
        n = float(order)
        for theta, phi, map_s, map_i in sc.rotation_qfi_map(order, 32).tolist():
            probe = sc.hlg_state(ladder, order, sc.SpherePoint(theta, phi))
            sin_sq = math.sin(theta) ** 2
            closed_s = 4.0 * n * sin_sq
            closed_i = 4.0 * n * n * (1.0 - sin_sq) + 4.0 * n * sin_sq
            got_s, got_i = sqpe_qfi(dyn, probe), iqpe_qfi(dyn, probe)
            if not (
                _rel_ok(got_s, closed_s, 1e-6) and _rel_ok(got_s, map_s, 1e-6)
                and _rel_ok(got_i, closed_i, 1e-6) and _rel_ok(got_i, map_i, 1e-6)
            ):
                all_match = False
    elapsed = time.perf_counter() - start
    _report(
        1,
        "engine matches closed-form QFI maps at N in {1, 4, 10} on a 32x64 grid",
        all_match and elapsed < 10.0,
        f"{elapsed:.2f} s",
    )


def test_criterion_2_kerr_scenario():
    start = time.perf_counter()
    ok = True
    for nbar in (1.0, 4.0, 9.0):
        got_s, got_i = sc.kerr_qfi(nbar)
        ok = ok and _rel_ok(got_s, 4.0 * nbar, 1e-4)
        ok = ok and _rel_ok(got_i, 4.0 * nbar**2 + 4.0 * nbar, 1e-4)
    elapsed = time.perf_counter() - start
    _report(
        2,
        "coherent-probe QFIs equal 4*nbar and 4*nbar^2 + 4*nbar for nbar in {1, 4, 9}",
        ok and elapsed < 1.0,
        f"{elapsed:.2f} s",
    )


def test_criterion_3_bound_ordering():
    rng = np.random.default_rng(314159)
    scenarios = [
        ParameterizedDynamics(stokes_operators()[0]),
        ParameterizedDynamics(sc.modal_ladder(4).lz),
        ParameterizedDynamics(number_operator(48)),
    ]
    ok = True
    for dyn in scenarios:
        bound_s, bound_i = qfi_upper_bounds(dyn)
        for _ in range(1000):
            probe = random_probe(rng, dyn.dim)
            q_s = sqpe_qfi(dyn, probe)
            q_i = iqpe_qfi(dyn, probe)
            mean = expectation(dyn.characteristic_op, probe)
            ok = ok and q_s <= bound_s + 1e-9 and q_i <= bound_i + 1e-9
            ok = ok and abs((q_i - q_s) - 4.0 * mean * mean) <= 1e-8
    _report(
        3,
        "1000 random probes per scenario respect both bounds and the 4<V>^2 gap",
        ok,
    )


def test_criterion_4_representation_algebra():
    ok = True
    for order in (1, 2, 4, 10, 50, 150):
        ladder = sc.modal_ladder(order)
        a1, a2, a3 = ladder.j1.entries, ladder.j2.entries, ladder.j3.entries
        for a, b, c in ((a1, a2, a3), (a2, a3, a1), (a3, a1, a2)):
            ok = ok and np.linalg.norm(a @ b - b @ a - 1j * c, ord="fro") < 1e-9
        j = order / 2.0
        casimir = a1 @ a1 + a2 @ a2 + a3 @ a3
        ok = ok and np.max(np.abs(casimir - j * (j + 1.0) * np.eye(order + 1))) < 1e-9
        ok = ok and np.array_equal(ladder.lz.entries, 2.0 * a3)
        spectrum = np.sort(np.diag(ladder.lz.entries).real)
        ok = ok and np.max(np.abs(spectrum - np.arange(-order, order + 1, 2))) < 1e-9
    ladder1 = sc.modal_ladder(1)
    flipped = sc.hlg_state(ladder1, 1, sc.SpherePoint(math.pi, 0.0))
    overlap = np.vdot(ladder1.basis_state(-1).amplitudes, flipped.amplitudes)
    ok = ok and abs(abs(overlap) - 1.0) < 1e-9
    _report(
        4,
        "ladder commutators, Casimir, OAM spectra (N <= 150) and the N=1 pole flip",
        ok,
    )


def test_criterion_5_field_rotation_slope():
    ok = True
    details = []
    for l in (1, 4):
        field = sc.lg_field(0, l, 257, 6.0)
        alphas = np.linspace(-0.15, 0.15, 7)
        phases = np.unwrap(
            [np.angle(sc.field_rotation_check(field, a)) for a in alphas]
        )
        slope = float(np.polyfit(alphas, phases, 1)[0])
        details.append(f"l={l}: slope={slope:.4f}")
        ok = ok and abs(slope + l) <= 0.01 * l
    _report(
        5,
        "resampled-field overlap phase slope is -l within 1% for l in {1, 4}",
        ok,
        "; ".join(details),
    )


def test_criterion_6_crb_attainment():
    start = time.perf_counter()
    nu, trials, base_seed = 10**6, 10**4, 20260810
    ok = True
    details = []
    for l in (1, 10, 50, 150):
        proto = pr.RotationProtocol(l)
        # distinct seed per l: at alpha=0 every l sees the same pL, so a
        # shared seed would replay identical counts and correlate the checks
        _, stddev = pr.monte_carlo_precision(proto, 0.0, nu, trials, base_seed + l)
        crb = pr.crb_stddev(proto, nu)
        details.append(f"l={l}: {stddev / crb:.3f}")
        ok = ok and abs(stddev - crb) <= 0.05 * crb
    elapsed = time.perf_counter() - start
    _report(
        6,
        "Monte-Carlo estimator spread within 5% of 1/(2 l sqrt(nu))",
        ok and elapsed < 60.0,
        f"ratios {', '.join(details)}; {elapsed:.1f} s",
    )


def test_criterion_7_fit_reproduction():
    alpha, offset = math.radians(0.99), math.radians(0.35)
    cfg = em.parse_run_config("configs/static_fit_six_l.cfg")
    noiseless = em.fit_oam_series(em.run_fit_pipeline(cfg).phi_means)
    exact = (
        abs(noiseless.alpha_hat - alpha) < 1e-10
        and abs(noiseless.delta_phi_hat - offset) < 1e-10
    )
    noisy_cfg = em.RunConfig(
        mode="fit",
        l_values=cfg.l_values,
        power_w=cfg.power_w,
        delta_phi_rad=cfg.delta_phi_rad,
        signal_freq_hz=cfg.signal_freq_hz,
        signal_amp_rad=cfg.signal_amp_rad,
        sample_rate=cfg.sample_rate,
        duration_s=cfg.duration_s,
        noise=em.calibrated_noise(),
        seed=424242,
    )
    noisy = em.fit_oam_series(em.run_fit_pipeline(noisy_cfg).phi_means)
    _report(
        7,
        "six-OAM pipeline returns the synthesis truth (1e-10 noiseless, R^2 >= 0.999 noisy)",
        exact and noisy.r_square >= 0.999,
        f"noisy R^2 = {noisy.r_square:.6f}",
    )


def test_criterion_8_spectrum_reproduction():
    start = time.perf_counter()
    marker = em.pzt_rotation_amplitude(12e-3, 22e-9, 10e-3)
    # the shipped geometry without noise: 20 kHz, 1 mW, 60 kSa/s for 0.1 s, l = 150
    shipped = em.parse_run_config("configs/spectrum_l150.cfg")
    silent = dataclasses.replace(shipped, noise=em.NoiseSpec(), signal_amp_rad=marker)
    record = em.synthesize_record(silent, 150)
    phi, _ = em.demodulate_phase(record)
    report = em.amplitude_spectrum(phi / 300.0, 60e3, (18e3, 28e3))
    peak_ok = (
        report.signal_peak[0] == 20e3
        and abs(report.signal_peak[1] - marker) <= 0.02 * marker
    )
    noise = em.calibrated_noise()
    scan = dataclasses.replace(
        shipped,
        noise=noise,
        seed=20260810,
        signal_amp_rad=marker,
    )
    table = em.precision_vs_oam(scan, [50, 80, 100, 150])
    floors = np.array([floor for _, floor in table])
    floor_150 = floors[-1]
    floor_ok = abs(floor_150 - 12.9e-9) <= 0.15 * 12.9e-9
    slope = float(np.polyfit(np.log([50, 80, 100, 150]), np.log(floors), 1)[0])
    slope_ok = abs(slope + 1.0) <= 0.1
    elapsed = time.perf_counter() - start
    _report(
        8,
        "20 kHz marker recovered within 2%; l=150 floor 12.9 nrad +/- 15%; slope -1 +/- 0.1",
        peak_ok and floor_ok and slope_ok and elapsed < 30.0,
        f"peak {report.signal_peak[1] * 1e9:.2f} nrad, floor {floor_150 * 1e9:.2f} nrad, "
        f"slope {slope:.3f}, {elapsed:.1f} s",
    )


def test_criterion_9_cli_determinism(tmp_path):
    pairs = {
        "experiment": ["experiment", "--config", "configs/spectrum_l150.cfg"],
        "rotation-sim": ["rotation-sim", "--l", "20", "--alpha-deg", "0.001",
                         "--nu", "100000", "--trials", "300", "--seed", "77"],
        "qfi-map": ["qfi-map", "--scenario", "rotation", "--order-n", "4",
                    "--resolution", "8"],
    }
    ok = True
    for name, argv in pairs.items():
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}"
            assert cli_main(argv + ["--out", str(out)]) == 0
            outputs.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted(out.iterdir())
                    if p.name != "manifest.json"
                }
            )
        ok = ok and outputs[0] == outputs[1]
    _report(9, "repeated CLI runs with identical config and seed are byte-identical", ok)
