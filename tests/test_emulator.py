"""Detector pipeline: synthesis, demodulation, fit, spectrum, noise floors."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpe import emulator
from iqpe.emulator import (
    VOLTS_PER_WATT,
    ConfigError,
    DetectorRecord,
    NoiseSpec,
    RunConfig,
    amplitude_spectrum,
    calibrated_noise,
    demodulate_phase,
    fit_oam_series,
    parse_run_config,
    precision_vs_oam,
    pzt_rotation_amplitude,
    run_fit_pipeline,
    run_spectrum_pipeline,
    synthesize_record,
)
from iqpe.statekit import ContractViolation

SILENT = NoiseSpec()
SPECTRUM_CONFIG = "configs/spectrum_l150.cfg"
FIT_CONFIG = "configs/static_fit_six_l.cfg"


def synth(l, alpha_rad, delta_phi=0.0, power=1e-3, noise=SILENT, rate=60e3, dur=0.1, seed=0):
    return synthesize_record(l, alpha_rad, 0.0, delta_phi, power, noise, rate, dur, seed)


def floor_scan(l_values, **changes):
    """precision_vs_oam over the shipped spectrum geometry with ``changes``."""
    cfg = dataclasses.replace(parse_run_config(SPECTRUM_CONFIG), **changes)
    return precision_vs_oam(cfg, l_values)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def test_synthesis_balanced_channels():
    record = synth(10, 0.0)
    half = 0.5e-3 * VOLTS_PER_WATT
    assert np.allclose(record.ch1, half, atol=0.0)
    assert np.array_equal(record.ch1, record.ch2)


def test_synthesis_static_ratio():
    # ratio = sin(2 l alpha + delta_phi); at l=30, alpha=1 deg, offset=0.35 deg
    # the argument is 60.35 deg (the 0.99 deg rotation gives 59.75 deg)
    record = synth(30, math.radians(1.0), math.radians(0.35))
    ratio = (record.ch1 - record.ch2) / (record.ch1 + record.ch2)
    assert np.allclose(ratio, math.sin(math.radians(60.35)), atol=1e-15)
    record2 = synth(30, math.radians(0.99), math.radians(0.35))
    ratio2 = (record2.ch1 - record2.ch2) / (record2.ch1 + record2.ch2)
    assert np.allclose(ratio2, math.sin(math.radians(59.75)), atol=1e-15)


def test_synthesis_record_length():
    record = synthesize_record(150, 1e-8, 20e3, 0.0, 1e-3, SILENT, 60e3, 0.1, seed=0)
    assert record.ch1.size == 6000 and record.ch2.size == 6000
    assert np.all(record.ch1 >= 0.0) and np.all(record.ch2 >= 0.0)


def test_synthesis_nyquist_guard():
    with pytest.raises(ContractViolation, match="Nyquist"):
        synthesize_record(1, 1e-8, 40e3, 0.0, 1e-3, SILENT, 60e3, 0.1, seed=0)


def test_synthesis_rejects_negative_frequency():
    with pytest.raises(ConfigError, match="signal_freq_hz"):
        synthesize_record(1, 1e-8, -20e3, 0.0, 1e-3, SILENT, 60e3, 0.1, seed=0)


@pytest.mark.parametrize(
    "freq, power, key",
    [(math.nan, 1e-3, "signal_freq_hz"), (20e3, math.nan, "power_w"), (20e3, math.inf, "power_w")],
)
def test_synthesis_refuses_what_the_run_config_keys_refuse(freq, power, key):
    # the key ranges of RunConfig; unchecked, a NaN frequency synthesized a
    # record of NaN phases
    with pytest.raises(ConfigError) as info:
        synthesize_record(1, 1e-8, freq, 0.0, power, SILENT, 60e3, 0.1, seed=0)
    assert info.value.keys == (key,)


def test_detector_record_length_contract():
    with pytest.raises(ContractViolation, match="equal length"):
        DetectorRecord(60e3, np.zeros(10), np.zeros(11))
    with pytest.raises(ContractViolation, match="1-d"):
        DetectorRecord(60e3, np.zeros((2, 5)), np.zeros((2, 5)))


# ---------------------------------------------------------------------------
# demodulation
# ---------------------------------------------------------------------------


def test_demodulation_balanced_is_zero():
    phi, flagged = demodulate_phase(synth(10, 0.0))
    assert np.all(phi == 0.0)
    assert flagged.size == 0


def test_demodulation_one_sided_is_quarter_turn():
    n = 6000
    record = DetectorRecord(60e3, np.full(n, 2.0), np.zeros(n))
    phi, _ = demodulate_phase(record)
    assert np.allclose(phi, math.pi / 2.0)


def test_demodulation_gaussian_beam_sees_only_offset():
    # l = 0: the relative phase is the systematic offset, independent of alpha
    offset = math.radians(0.35)
    for alpha in (0.0, 0.01, 0.5):
        phi, _ = demodulate_phase(synth(0, alpha, offset))
        assert np.allclose(phi, offset, atol=1e-15)


def test_demodulation_flags_dead_samples():
    ch1 = np.ones(6000)
    ch1[7] = 0.0
    ch2 = np.ones(6000)
    ch2[7] = 0.0
    phi, flagged = demodulate_phase(DetectorRecord(60e3, ch1, ch2))
    assert list(flagged) == [7]
    assert np.isnan(phi[7]) and np.isfinite(phi[8])


def test_round_trip_recovers_phase():
    l, delta_phi = 12, 0.05
    amp = 1.2 / (2 * l)  # peak |Phi| ~ 1.25 rad < pi/2
    record = synthesize_record(l, amp, 200.0, delta_phi, 1e-3, SILENT, 60e3, 0.1, seed=0)
    phi, _ = demodulate_phase(record)
    t = record.times()
    expected = 2 * l * amp * np.sin(2 * np.pi * 200.0 * t) + delta_phi
    assert np.max(np.abs(phi - expected)) < 1e-10


# ---------------------------------------------------------------------------
# linear fit
# ---------------------------------------------------------------------------


def test_fit_recovers_synthesis_truth():
    alpha, offset = math.radians(0.99), math.radians(0.35)
    means = []
    for l in (1, 4, 7, 10, 20, 30):
        phi, _ = demodulate_phase(synth(l, alpha, offset))
        means.append((l, float(np.mean(phi))))
    fit = fit_oam_series(means)
    assert fit.alpha_hat == pytest.approx(alpha, abs=1e-12)
    assert fit.delta_phi_hat == pytest.approx(offset, abs=1e-12)
    assert fit.r_square == pytest.approx(1.0, abs=1e-12)


def test_fit_zero_phase_data():
    fit = fit_oam_series([(1, 0.0), (2, 0.0), (5, 0.0)])
    assert fit.alpha_hat == 0.0 and fit.delta_phi_hat == 0.0


def test_emulator_import_loads_no_importlib_resources():
    # calibrated_noise, its one user, imports it, and no command calls that.
    # -S keeps site's .pth hooks from importing it into the process first
    paths = [str(Path(__file__).resolve().parents[1] / "src"), str(Path(np.__file__).parents[1])]
    code = (f"import sys; sys.path[:0] = {paths!r}; import iqpe.emulator; "
            "print('importlib.resources' in sys.modules)")
    result = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": ""})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_fit_noisy_data_keeps_high_r_square():
    noise = calibrated_noise()
    alpha, offset = math.radians(0.99), math.radians(0.35)
    means = []
    for i, l in enumerate((1, 4, 7, 10, 20, 30)):
        record = synthesize_record(
            l, alpha, 0.0, offset, 1e-3, noise, 60e3, 0.1, seed=13, stream_offset=8 * i
        )
        phi, _ = demodulate_phase(record)
        means.append((l, float(np.mean(phi))))
    fit = fit_oam_series(means)
    assert fit.r_square >= 0.999
    assert fit.alpha_hat == pytest.approx(alpha, rel=1e-3)


def test_fit_input_guards():
    with pytest.raises(ConfigError):
        fit_oam_series([(1, 0.1), (2, 0.2)])
    with pytest.raises(ConfigError):
        fit_oam_series([(3, 0.1), (3, 0.2), (3, 0.3)])


# ---------------------------------------------------------------------------
# actuation chain
# ---------------------------------------------------------------------------


def test_pzt_zero_drive():
    assert pzt_rotation_amplitude(0.0, 22e-9, 10e-3) == 0.0


def test_pzt_reference_chain():
    amp = pzt_rotation_amplitude(12e-3, 22e-9, 10e-3)
    assert amp == pytest.approx(52.8e-9, rel=1e-12)
    # the physical chain lands ~12% under the quoted "approximately 60 nrad"
    assert 0.8 * 60e-9 < amp < 60e-9


def test_pzt_spacing_scaling():
    base = pzt_rotation_amplitude(12e-3, 22e-9, 10e-3)
    assert pzt_rotation_amplitude(12e-3, 22e-9, 20e-3) == pytest.approx(base / 2.0)
    with pytest.raises(ContractViolation):
        pzt_rotation_amplitude(12e-3, -1e-9, 10e-3)


# ---------------------------------------------------------------------------
# amplitude spectrum
# ---------------------------------------------------------------------------


def test_spectrum_bin_centered_sinusoid():
    fs, dur = 60e3, 0.1
    t = np.arange(int(fs * dur)) / fs
    report = amplitude_spectrum(60e-9 * np.sin(2 * np.pi * 20e3 * t), fs, (18e3, 28e3))
    assert report.signal_peak[0] == 20e3
    assert report.signal_peak[1] == pytest.approx(60e-9, rel=0.01)


def test_spectrum_zero_input():
    report = amplitude_spectrum(np.zeros(2048), 60e3, (18e3, 28e3))
    assert np.all(report.amplitudes == 0.0)
    assert report.noise_floor == 0.0


def test_spectrum_guards():
    with pytest.raises(ContractViolation):
        amplitude_spectrum(np.zeros(512), 60e3, (18e3, 28e3))
    with pytest.raises(ContractViolation):
        amplitude_spectrum(np.zeros(2048), 60e3, (18e3, 40e3))


def test_spectrum_parseval():
    rng = np.random.default_rng(4)
    x = rng.normal(size=6000)
    x -= x.mean()
    report = amplitude_spectrum(x, 60e3, (18e3, 28e3))
    amps = report.amplitudes
    total = amps[0] ** 2 + np.sum(amps[1:-1] ** 2) / 2.0 + amps[-1] ** 2
    assert total == pytest.approx(float(np.mean(x**2)), rel=1e-6)


def test_spectrum_peak_power_invariant():
    # demodulation is ratiometric: the absolute power level cancels
    peaks = []
    for power in (1e-4, 1e-2):
        record = synthesize_record(50, 5.28e-8, 20e3, 0.0, power, SILENT, 60e3, 0.1, seed=0)
        phi, _ = demodulate_phase(record)
        report = amplitude_spectrum(phi / 100.0, 60e3, (18e3, 28e3))
        peaks.append(report.signal_peak[1])
    assert peaks[0] == pytest.approx(peaks[1], rel=0.01)


# ---------------------------------------------------------------------------
# noise floors vs OAM
# ---------------------------------------------------------------------------


def test_floor_single_l():
    table = floor_scan([80], noise=NoiseSpec(phase_asd=1e-6), seed=1)
    assert len(table) == 1 and table[0][0] == 80


def test_floor_halves_when_l_doubles():
    table = floor_scan([50, 100], noise=NoiseSpec(phase_asd=1e-6), seed=2)
    assert table[0][1] / table[1][1] == pytest.approx(2.0, rel=0.1)


def test_floor_slope_phase_noise():
    table = floor_scan([50, 80, 100, 150], noise=NoiseSpec(phase_asd=1e-6), seed=3)
    floors = np.array([floor for _, floor in table])
    assert np.all(np.diff(floors) < 0.0)
    slope = np.polyfit(np.log([50, 80, 100, 150]), np.log(floors), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.1)


def test_floor_slope_shot_noise():
    table = floor_scan([50, 80, 100, 150], noise=NoiseSpec(shot=1.0), seed=4, power_w=1e-6)
    floors = np.array([floor for _, floor in table])
    slope = np.polyfit(np.log([50, 80, 100, 150]), np.log(floors), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.15)


def test_floor_scan_needs_spectrum_config():
    with pytest.raises(ConfigError, match="mode=spectrum"):
        precision_vs_oam(parse_run_config(FIT_CONFIG), [50])
    with pytest.raises(ConfigError, match=r"an integer in \[1, 9007199254740992\]"):
        floor_scan([50, 0])


def test_floor_scan_refuses_l_past_fold_before_any_run(monkeypatch):
    # 2*l*A = 2.1 rad at l = 2e7: the arcsin readout would report another floor
    def no_run(*args, **kwargs):
        raise AssertionError("a run started before every l was checked")

    monkeypatch.setattr(emulator, "synthesize_record", no_run)
    with pytest.raises(ConfigError, match="pi/2") as info:
        precision_vs_oam(parse_run_config(SPECTRUM_CONFIG), [150, 20_000_000])
    assert info.value.keys == ("l", "signal_amp_rad", "delta_phi_rad")


@pytest.mark.parametrize(
    "changes", [{"l_values": (20_000_000,)}, {"signal_amp_rad": 1e-2}], ids=["l", "amp"]
)
def test_replaced_config_past_fold_is_refused(changes):
    # unchecked, the spectrum at l = 2e7 reads a 3.79e-8 peak for a 5.28e-8 signal
    cfg = parse_run_config(SPECTRUM_CONFIG)
    with pytest.raises(ConfigError, match="pi/2"):
        run_spectrum_pipeline(dataclasses.replace(cfg, **changes))


@pytest.mark.parametrize(
    "changes, key",
    [
        # unchecked, a fit runs to alpha_hat = nan
        ({"signal_amp_rad": math.nan}, "signal_amp_rad"),
        # unchecked, round() raises a bare ValueError
        ({"duration_s": math.nan}, "duration_s"),
        ({"seed": -1}, "seed"),
        ({"band": (-5.0, 28e3)}, "band_lo_hz"),
        # unchecked, synthesis raises a ContractViolation
        ({"power_w": -1e-3}, "power_w"),
        # unchecked, the noise streams of seed 0
        ({"seed": 2**64}, "seed"),
    ],
    ids=["amp-nan", "duration-nan", "seed-negative", "band-lo-negative", "power-negative",
         "seed-past-64-bits"],
)
def test_replaced_config_outside_a_key_range_is_refused(changes, key):
    cfg = parse_run_config(FIT_CONFIG)
    with pytest.raises(ConfigError) as info:
        dataclasses.replace(cfg, **changes)
    assert info.value.keys == (key,)
    assert str(info.value).startswith(f"{key!r} must be ")


@pytest.mark.parametrize("l_values", [(1.5, 4, 7), (-1, 4, 7), (1, 4, 2**53 + 1)],
                         ids=["fraction", "negative", "past-2^53"])
def test_replaced_config_with_an_oam_value_outside_its_range_is_refused(l_values):
    # unchecked, a code-built fit ran at l = 1.5 and wrote record_l1.5.csv
    with pytest.raises(ConfigError, match=r"an integer in \[0, 9007199254740992\]") as info:
        dataclasses.replace(parse_run_config(FIT_CONFIG), l_values=l_values)
    assert info.value.keys == ("l",)


@pytest.mark.parametrize("key", ["phase_asd", "shot"])
@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_noise_outside_its_range_is_refused(key, value):
    with pytest.raises(ConfigError) as info:
        NoiseSpec(**{key: value})
    assert info.value.keys == (f"noise.{key}",)


# ---------------------------------------------------------------------------
# run configuration and pipelines
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=150), min_size=3, max_size=8, unique=True),
    st.floats(min_value=-0.1, max_value=0.1),
    st.floats(min_value=0.0, max_value=1.4),
)
def test_noiseless_fit_over_config_range(l_values, delta_phi, top_phase):
    # the largest phase 2*max(l)*alpha + delta_phi is top_phase, below the
    # arcsin fold at pi/2, so every sample demodulates to its true phase
    alpha = (top_phase - delta_phi) / (2.0 * max(l_values))
    cfg = dataclasses.replace(
        parse_run_config(FIT_CONFIG),
        l_values=tuple(l_values),
        delta_phi_rad=delta_phi,
        signal_amp_rad=alpha,
    )
    result = run_fit_pipeline(cfg)
    for run in result.runs:
        assert np.max(np.abs(run.phi - (2 * run.l * alpha + delta_phi))) < 1e-12
    assert result.fit.alpha_hat == pytest.approx(alpha, rel=1e-9, abs=1e-12)


def test_parse_shipped_fit_config():
    cfg = parse_run_config(FIT_CONFIG)
    assert cfg.mode == "fit"
    assert cfg.l_values == (1, 4, 7, 10, 20, 30)
    result = run_fit_pipeline(cfg)
    assert result.fit.alpha_hat == pytest.approx(math.radians(0.99), abs=1e-12)
    assert result.fit.delta_phi_hat == pytest.approx(math.radians(0.35), abs=1e-12)


def test_parse_shipped_spectrum_config():
    cfg = parse_run_config(SPECTRUM_CONFIG)
    assert cfg.mode == "spectrum" and cfg.l_values == (150,)
    assert cfg.noise.phase_asd == calibrated_noise().phase_asd
    result = run_spectrum_pipeline(cfg)
    assert result.spectrum.noise_floor == pytest.approx(12.9e-9, rel=0.15)


def test_config_error_reporting(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode = fit\nl = 1, 4, 7\nnot_a_key = 3\n")
    with pytest.raises(ConfigError, match="not_a_key"):
        parse_run_config(bad)
    bad.write_text("mode = fit\nmode = spectrum\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_run_config(bad)
    bad.write_text("mode fit\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_run_config(bad)
    bad.write_text("mode = fit\nl = 1, 4, 7\npower_w = watts\n")
    with pytest.raises(ConfigError, match="power_w"):
        parse_run_config(bad)


def test_config_requires_seed_with_noise(tmp_path):
    cfg = tmp_path / "noisy.cfg"
    cfg.write_text(
        "mode = spectrum\nl = 50\npower_w = 1e-3\nsignal_freq_hz = 20e3\n"
        "signal_amp_rad = 5e-8\nsample_rate = 60e3\nduration_s = 0.1\n"
        "noise.phase_asd = 1e-6\n"
    )
    with pytest.raises(ConfigError, match="seed"):
        parse_run_config(cfg)


def _near(bound):
    """``bound`` (>= 0), a neighbouring float on either side, or a value
    around it, never below 0."""
    edges = [bound, math.nextafter(bound, math.inf), math.nextafter(bound, 0.0)]
    return st.one_of(st.sampled_from(edges), st.floats(0.0, 2.0 * bound))


@st.composite
def run_config_fields(draw):
    """RunConfig fields.  Every rule holds but one, drawn at or just past its
    edge, or for a key's own range a value outside it."""
    at_edge = draw(st.sampled_from(
        ["mode", "l", "seed", "duration_s", "band", "signal_freq_hz", "band_hi_hz", "fold",
         "power_w", "signal_amp_rad"]
    ))

    def pick(rule, holds, edge):
        return draw(edge if rule == at_edge else holds)

    mode = pick("mode", st.sampled_from(["fit", "spectrum"]), st.just("static"))
    if mode == "fit":
        distinct = st.lists(st.integers(0, 300), min_size=3, max_size=5, unique=True)
    else:
        distinct = st.lists(st.integers(1, 300), min_size=1, max_size=1)
    l_values = pick("l", distinct, st.lists(st.integers(0, 300), min_size=1, max_size=5))
    rate = draw(st.sampled_from([60e3, 44.1e3, 1e3]))
    nyquist = rate / 2.0
    hi = pick("band_hi_hz", st.floats(1.0, nyquist), _near(nyquist))
    offset = draw(st.floats(-0.5, 0.5))
    edge = (math.pi / 2.0 - abs(offset)) / (2.0 * max(l_values[0], 1))
    amp = pick("fold", st.floats(0.0, edge / 2.0), _near(edge)) * draw(st.sampled_from([1.0, -1.0]))
    return dict(
        mode=mode,
        l_values=tuple(l_values),
        power_w=pick("power_w", st.floats(1e-6, 1.0),
                     st.sampled_from([0.0, -1e-3, math.nan, math.inf])),
        delta_phi_rad=offset,
        signal_freq_hz=pick("signal_freq_hz", st.sampled_from([0.0, 20.0]), _near(nyquist)),
        signal_amp_rad=pick("signal_amp_rad", st.just(amp),
                            st.sampled_from([math.nan, math.inf, -math.inf])),
        sample_rate=rate,
        duration_s=pick("duration_s", st.floats(1.0 / rate, 0.2),
                        st.one_of(_near(0.5 / rate), st.floats(-1.0, 0.0))),
        noise=NoiseSpec(draw(st.sampled_from([0.0, 1e-6])), draw(st.sampled_from([0.0, 1.0]))),
        seed=pick("seed", st.integers(0, 2**63), st.one_of(st.none(), st.integers(-2**63, -1))),
        band=(pick("band", st.floats(0.0, hi / 2.0), _near(hi)), hi),
    )


def _config_text(fields):
    noise, (lo, hi), seed = fields["noise"], fields["band"], fields["seed"]
    keys = {
        "mode": fields["mode"],
        "l": ", ".join(str(l) for l in fields["l_values"]),
        **{key: repr(fields[key]) for key in (
            "power_w", "delta_phi_rad", "signal_freq_hz", "signal_amp_rad", "sample_rate",
            "duration_s")},
        "band_lo_hz": repr(lo),
        "band_hi_hz": repr(hi),
        "noise.phase_asd": repr(noise.phase_asd),
        "noise.shot": repr(noise.shot),
        **({} if seed is None else {"seed": str(seed)}),
    }
    return "".join(f"{key} = {value}\n" for key, value in keys.items())


def _built(make):
    try:
        return make()
    except ConfigError as exc:
        return exc


@settings(max_examples=200, deadline=None)
@given(run_config_fields())
def test_parsed_and_built_configs_refuse_alike(tmp_path_factory, fields):
    # one set of rules: a file is refused exactly when the same fields built
    # in code are, for the same rule, with the file's lines in front
    path = tmp_path_factory.getbasetemp() / "drawn.cfg"
    path.write_text(_config_text(fields))
    built = _built(lambda: RunConfig(**fields))
    parsed = _built(lambda: parse_run_config(path))
    if isinstance(built, ConfigError):
        assert isinstance(parsed, ConfigError)
        assert str(parsed).startswith(f"{path}:") and str(parsed).endswith(f": {built}")
        assert parsed.keys == built.keys
    else:
        assert parsed == built


def test_config_missing_required(tmp_path):
    cfg = tmp_path / "missing.cfg"
    cfg.write_text("mode = fit\nl = 1, 4, 7\n")
    with pytest.raises(ConfigError, match="power_w"):
        parse_run_config(cfg)
