"""CLI surface: artifacts, schemas, determinism, exit codes."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpe import cli, emulator, protocol, scenarios
from iqpe.cli import build_parser, main
from iqpe.statekit import FINITE, ContractViolation

REPO = Path(__file__).resolve().parent.parent
FIT_CONFIG = "configs/static_fit_six_l.cfg"
SPECTRUM_CONFIG = "configs/spectrum_l150.cfg"


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def artifact_bytes(out_dir):
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.name != "manifest.json"
    }


def assert_manifest_lists_exactly(out_dir, names):
    checksums = read_json(out_dir / "manifest.json")["artifact_checksums"]
    assert set(checksums) == set(names)
    for name, digest in checksums.items():
        assert digest == "sha256:" + hashlib.sha256((out_dir / name).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# qfi-map
# ---------------------------------------------------------------------------


def test_qfi_map_rotation(tmp_path):
    out = tmp_path / "map"
    code = main(
        ["qfi-map", "--scenario", "rotation", "--order-n", "4", "--resolution", "8",
         "--out", str(out)]
    )
    assert code == 0
    summary = read_json(out / "summary.json")
    assert summary["qfi_iqpe_max"] == pytest.approx(64.0, rel=1e-12)
    assert summary["qfi_sqpe_min"] == pytest.approx(0.0, abs=1e-12)
    assert summary["dead_zone"]["count"] > 0
    rows = (out / "map.csv").read_text().splitlines()
    assert rows[0] == "theta,phi,qfi_sqpe,qfi_iqpe"
    assert len(rows) == 1 + 8 * 16
    manifest = read_json(out / "manifest.json")
    assert manifest["subcommand"] == "qfi-map"
    assert set(manifest["artifact_checksums"]) == {"map.csv", "summary.json"}


def test_qfi_map_engine_disagreement_is_numeric_error(tmp_path, monkeypatch, capsys):
    real = scenarios._rotation_engine

    def perturbed(ladder, thetas):
        engine_s, engine_i = real(ladder, thetas)
        engine_s[1] += 1.0
        return engine_s, engine_i

    monkeypatch.setattr(scenarios, "_rotation_engine", perturbed)
    code = main(["qfi-map", "--scenario", "rotation", "--order-n", "4", "--resolution", "4",
                 "--out", str(tmp_path / "map")])
    assert code == 2
    err = capsys.readouterr().err
    # one engine value per theta holds for every phi; the first phi is named
    assert f"theta={math.pi / 3.0}, phi=0.0" in err


def test_qfi_map_birefringence_flat(tmp_path):
    out = tmp_path / "map"
    assert main(["qfi-map", "--scenario", "birefringence", "--resolution", "8",
                 "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["qfi_iqpe_min"] == summary["qfi_iqpe_max"] == pytest.approx(4.0)


def test_qfi_map_smallest_grid(tmp_path):
    out = tmp_path / "map"
    assert main(["qfi-map", "--scenario", "birefringence", "--resolution", "2",
                 "--out", str(out)]) == 0
    rows = (out / "map.csv").read_text().splitlines()
    assert len(rows) == 1 + 8


def test_qfi_map_requires_order_for_rotation(tmp_path):
    code = main(["qfi-map", "--scenario", "rotation", "--out", str(tmp_path / "x")])
    assert code == 1


# ---------------------------------------------------------------------------
# kerr
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "nbar, expected",
    [(0.0, (0.0, 0.0)), (4.0, (16.0, 80.0)), (9.0, (36.0, 360.0))],
)
def test_kerr_values(tmp_path, nbar, expected):
    out = tmp_path / "kerr"
    assert main(["kerr", "--nbar", str(nbar), "--out", str(out)]) == 0
    payload = read_json(out / "kerr.json")
    assert payload["qfi_sqpe"] == pytest.approx(expected[0], rel=1e-4, abs=1e-9)
    assert payload["qfi_iqpe"] == pytest.approx(expected[1], rel=1e-4, abs=1e-9)
    assert payload["truncation"] == scenarios.kerr_truncation(nbar)
    assert read_json(out / "manifest.json")["parameters"] == {"nbar": nbar}


def test_kerr_vacuum_is_exact(tmp_path):
    out = tmp_path / "kerr"
    assert main(["kerr", "--nbar", "0", "--out", str(out)]) == 0
    payload = read_json(out / "kerr.json")
    assert (payload["qfi_sqpe"], payload["qfi_iqpe"], payload["truncation"]) == (0.0, 0.0, 1)


@pytest.mark.parametrize("nbar", [3000.0, 6000.0])
def test_kerr_large_nbar_runs(tmp_path, nbar):
    # 16*ceil(nbar)+32 levels summed to a tail above 1e-12 by rounding alone,
    # and the command refused its own default with exit 2
    out = tmp_path / "kerr"
    assert main(["kerr", "--nbar", str(nbar), "--out", str(out)]) == 0
    payload = read_json(out / "kerr.json")
    assert payload["qfi_sqpe"] == pytest.approx(4.0 * nbar, rel=1e-11)
    assert payload["qfi_iqpe"] == pytest.approx(4.0 * nbar * nbar + 4.0 * nbar, rel=1e-11)


# ---------------------------------------------------------------------------
# rotation-sim
# ---------------------------------------------------------------------------


def test_rotation_sim_crb_and_manifest(tmp_path):
    out = tmp_path / "sim"
    code = main(
        ["rotation-sim", "--l", "50", "--alpha-deg", "0.0005", "--nu", "1000000",
         "--trials", "2000", "--seed", "11", "--out", str(out)]
    )
    assert code == 0
    payload = read_json(out / "rotation_sim.json")
    assert payload["crb"] == pytest.approx(1e-5, rel=1e-12)
    assert 0.95 <= payload["ratio"] <= 1.05
    manifest = read_json(out / "manifest.json")
    assert manifest["parameters"]["trials"] == 2000
    assert manifest["seed"] == 11


def test_rotation_sim_requires_seed(tmp_path):
    code = main(["rotation-sim", "--l", "5", "--alpha-deg", "0", "--out", str(tmp_path / "x")])
    assert code == 1


@pytest.mark.parametrize(
    "alpha_deg",
    [
        "1",    # past the fold: the clamped arcsin read 0.01396 against a truth of 0.01745
        "0.9",  # on the fold: every trial saturates and the spread collapses to 0
    ],
)
def test_rotation_sim_refuses_unidentifiable_angle(tmp_path, capsys, alpha_deg):
    out = tmp_path / "sim"
    code = main(["rotation-sim", "--l", "50", "--alpha-deg", alpha_deg, "--trials", "1000",
                 "--seed", "1", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "--alpha-deg" in err
    assert "(-0.9, 0.9) deg" in err
    assert not (out / "rotation_sim.json").exists()


def test_rotation_sim_refuses_trials_past_the_top_before_the_minority_rule(capsys):
    # at 10^300 trials, trials*(1/2)^nu > 2^-53: the minority-channel rule
    # had no phase left and printed "[0.967949196, -0.967949196] deg"
    argv = ["rotation-sim", "--l", "1", "--nu", "1000", "--alpha-deg", "0", "--seed", "1",
            "--trials", "1" + "0" * 300, "--out", "unused"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: argument --trials: ")
    assert "0.967949196" not in err


def test_rotation_sim_refuses_a_minority_probability_that_rounds_to_zero(tmp_path, capsys):
    # at nu = 2^63 - 1 the minority floor is 4.5e-18, and asin(1 - 2 p_min)
    # rounded to pi/2: the phase passed, while pR = 1 - pL rounded to 0, so
    # every trial drew nu photons in one channel and 'ratio' read 6.78e-7
    out = tmp_path / "sim"
    argv = ["rotation-sim", "--l", "1", "--nu", str(protocol.NU.hi), "--alpha-deg",
            "44.99999999", "--trials", "100", "--seed", "1", "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --alpha-deg 44.99999999 risks an empty minority channel")
    assert "[-44.9999997, 44.9999995] deg" in err and err.count("\n") == 1
    assert not (out / "rotation_sim.json").exists()


@pytest.mark.parametrize("alpha_deg, code", [("44.9", 1), ("33", 1), ("32.9", 0)])
def test_rotation_sim_refuses_angle_with_an_empty_minority_channel(tmp_path, capsys, alpha_deg,
                                                                   code):
    # inside the fold, but at 44.9 deg the minority channel holds about 0.6
    # expected photons: most trials read the boundary and the run claimed a
    # spread 0.109 times the CRB.  trials*(1 - p_min)^nu <= 2^-53 allows
    # |alpha| <= 32.98 deg here
    out = tmp_path / "sim"
    argv = ["rotation-sim", "--l", "1", "--nu", "1000", "--trials", "2000", "--seed", "3",
            "--alpha-deg", alpha_deg, "--out", str(out)]
    assert main(argv) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith(f"error: --alpha-deg {float(alpha_deg)} risks an empty minority")
        assert "[-32.980029, 32.980029] deg" in err and err.count("\n") == 1
        assert not (out / "rotation_sim.json").exists()
    else:
        assert 0.8 <= read_json(out / "rotation_sim.json")["ratio"] <= 1.2


# ---------------------------------------------------------------------------
# experiment
# ---------------------------------------------------------------------------


def test_experiment_fit_bundle(tmp_path):
    out = tmp_path / "exp"
    assert main(["experiment", "--config", FIT_CONFIG, "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["fit"]["alpha_hat_rad"] == pytest.approx(math.radians(0.99), abs=1e-12)
    assert summary["fit"]["delta_phi_hat_rad"] == pytest.approx(math.radians(0.35), abs=1e-12)
    assert summary["fit"]["r_square"] == pytest.approx(1.0, abs=1e-12)
    for l in (1, 4, 7, 10, 20, 30):
        record = (out / f"record_l{l}.csv").read_text().splitlines()
        assert record[0] == "t,ch1,ch2"
        assert len(record) == 1 + 6000
        demod = (out / f"demod_l{l}.csv").read_text().splitlines()
        assert demod[0] == "t,phi,alpha"


def test_experiment_spectrum_bundle(tmp_path):
    out = tmp_path / "exp"
    assert main(["experiment", "--config", SPECTRUM_CONFIG, "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert "noise_floor_rad" in summary
    assert summary["noise_floor_rad"] == pytest.approx(12.9e-9, rel=0.2)
    spectrum = (out / "spectrum.csv").read_text().splitlines()
    assert spectrum[0] == "f_hz,amp_rad"


def test_experiment_seed_override(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["experiment", "--config", SPECTRUM_CONFIG, "--seed", "99",
                 "--out", str(out_a)]) == 0
    assert main(["experiment", "--config", SPECTRUM_CONFIG, "--out", str(out_b)]) == 0
    assert read_json(out_a / "manifest.json")["seed"] == 99
    assert artifact_bytes(out_a) != artifact_bytes(out_b)


def test_delta_phi_flag_keeps_the_library_edge():
    # 180 deg is pi exactly, the closed end of the library's (-pi, pi]
    args = build_parser().parse_args(
        ["rotation-sim", "--l", "5", "--alpha-deg", "0", "--delta-phi-deg", "180",
         "--seed", "1", "--out", "x"]
    )
    assert math.radians(args.delta_phi_deg) == math.pi
    assert protocol.RotationProtocol(5, math.radians(args.delta_phi_deg)).delta_phi == math.pi


@pytest.mark.parametrize("flag, value", [("--alpha-deg", "-1e-4"), ("--delta-phi-deg", "-1e1")])
def test_negative_exponent_flag_is_a_value(tmp_path, flag, value):
    # argparse's own pattern took -1e-4 for an option string
    base = ["rotation-sim", "--l", "5", "--alpha-deg", "0", "--trials", "100", "--seed", "1"]
    assert main(base + [flag, value, "--out", str(tmp_path / "word")]) == 0
    assert main(base + [f"{flag}={value}", "--out", str(tmp_path / "joined")]) == 0
    assert artifact_bytes(tmp_path / "word") == artifact_bytes(tmp_path / "joined")


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_config_is_config_error(tmp_path, capsys, kind):
    if kind == "directory":
        config = tmp_path
    else:
        config = tmp_path / "latin1.cfg"
        config.write_bytes("mode = fit  # \u00b5W\n".encode("latin-1"))
    assert main(["experiment", "--config", str(config), "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {str(config)!r}")
    assert err.count("\n") == 1


def test_experiment_malformed_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mode = fit\nunknown_key = 1\n")
    assert main(["experiment", "--config", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert main(["experiment", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path / "y")]) == 1


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_subcommand(tmp_path):
    table = tmp_path / "phases.csv"
    lines = ["l,phi_rad"]
    alpha, offset = 2e-3, 5e-4
    for l in (1, 5, 9, 14):
        lines.append(f"{l},{2 * l * alpha + offset}")
    table.write_text("\n".join(lines) + "\n")
    out = tmp_path / "fit"
    assert main(["fit", "--input", str(table), "--out", str(out)]) == 0
    payload = read_json(out / "fit.json")
    assert payload["alpha_hat_rad"] == pytest.approx(alpha, abs=1e-14)
    assert payload["delta_phi_hat_rad"] == pytest.approx(offset, abs=1e-14)
    assert payload["n_points"] == 4


def test_fit_rejects_bad_header(tmp_path):
    table = tmp_path / "phases.csv"
    table.write_text("oam,phase\n1,0.1\n")
    assert main(["fit", "--input", str(table), "--out", str(tmp_path / "x")]) == 1


# ---------------------------------------------------------------------------
# determinism and process-level behavior
# ---------------------------------------------------------------------------


def test_experiment_rerun_is_byte_identical(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["experiment", "--config", SPECTRUM_CONFIG, "--out", str(out)]) == 0
    assert artifact_bytes(out_a) == artifact_bytes(out_b)
    manifest_a = read_json(out_a / "manifest.json")
    manifest_b = read_json(out_b / "manifest.json")
    assert manifest_a["artifact_checksums"] == manifest_b["artifact_checksums"]


def test_rotation_sim_rerun_is_byte_identical(tmp_path):
    outs = [tmp_path / name for name in ("a", "b")]
    for out in outs:
        assert main(["rotation-sim", "--l", "9", "--alpha-deg", "0.001", "--nu", "10000",
                     "--trials", "200", "--seed", "5", "--out", str(out)]) == 0
    assert artifact_bytes(outs[0]) == artifact_bytes(outs[1])


def test_reused_out_spectrum_manifest_lists_only_its_run(tmp_path):
    out = tmp_path / "scan"
    text = Path(SPECTRUM_CONFIG).read_text()
    for l in (10, 20):
        config = tmp_path / f"l{l}.cfg"
        config.write_text(re.sub(r"^l = .*$", f"l = {l}", text, flags=re.MULTILINE))
        assert main(["experiment", "--config", str(config), "--out", str(out)]) == 0
    assert_manifest_lists_exactly(
        out, ["record_l20.csv", "demod_l20.csv", "spectrum.csv", "summary.json"]
    )


def test_reused_out_kerr_then_map_manifest(tmp_path):
    out = tmp_path / "shared"
    assert main(["kerr", "--nbar", "1", "--out", str(out)]) == 0
    assert_manifest_lists_exactly(out, ["kerr.json"])
    assert main(["qfi-map", "--scenario", "birefringence", "--resolution", "2",
                 "--out", str(out)]) == 0
    assert_manifest_lists_exactly(out, ["map.csv", "summary.json"])


def test_bench_tracer_finds_its_targets(tmp_path):
    # bench/tracer.py wraps named functions of every layer and exits 1 when
    # one is missing, so a rename here must update its TARGETS too.
    result = subprocess.run(
        [sys.executable, str(REPO / "bench" / "tracer.py"), str(tmp_path / "spans.json"),
         "smoke", "--", "qfi-map", "--scenario", "birefringence", "--resolution", "2",
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "spans.json").is_file()


def run_python(args):
    """``python *args`` in a fresh process that imports iqpe from src/."""
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )


def scipy_modules_after(code):
    """scipy modules loaded in a fresh process once ``code`` has run."""
    result = run_python(
        ["-c", code + "; import sys; print(sorted(m for m in sys.modules if m.startswith('scipy')))"]
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy submodules are imported inside their only users; a top-level
    # import would add its load time to every command
    assert scipy_modules_after("import iqpe.cli") == "[]"


def test_kerr_loads_no_scipy(tmp_path):
    # the Poisson weights are cumulative sums of numpy logs, not scipy.special
    argv = ["kerr", "--nbar", "99.27", "--out", str(tmp_path / "kerr")]
    code = f"import iqpe.cli; assert iqpe.cli.main({argv!r}) == 0"
    assert scipy_modules_after(code) == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["qfi-map", "--scenario", "rotation", "--order-n", "294", "--resolution", "2"],
        ["kerr", "--nbar", "200"],
        ["experiment", "--config", str(REPO / FIT_CONFIG)],
    ],
    ids=["qfi-map", "kerr", "experiment-noiseless"],
)
def test_command_without_random_draws_loads_no_openssl(tmp_path, argv):
    # artifact checksums use CPython's own SHA-256; hashlib would load
    # OpenSSL's _hashlib, a few MB of peak RSS, into every run
    argv = argv + ["--out", str(tmp_path / "out")]
    code = (
        f"import sys, iqpe.cli; assert iqpe.cli.main({argv!r}) == 0; "
        "print(sorted(m for m in sys.modules if m in ('hashlib', '_hashlib')))"
    )
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_rotation_sim_loads_no_numpy_random(tmp_path):
    # the Monte Carlo draws through protocol's own Philox and binomial
    # kernel; numpy.random would load OpenSSL's _hashlib (secrets -> hmac)
    argv = ["rotation-sim", "--l", "150", "--alpha-deg", "0.0005", "--nu", "1000000",
            "--trials", "5000", "--seed", "3", "--out", str(tmp_path / "sim")]
    code = (
        f"import sys, iqpe.cli; assert iqpe.cli.main({argv!r}) == 0; "
        "print(sorted(m for m in sys.modules if m in ('numpy.random', '_hashlib')))"
    )
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("size", [0, 1, 55, 56, 63, 64, 65, 2**20 + 3])
def test_checksum_is_sha256(size):
    # lengths around SHA-256's 64-byte block and its 8-byte length field
    data = random.Random(size).randbytes(size)
    assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_console_script_runs(tmp_path):
    out = tmp_path / "kerr"
    result = subprocess.run(
        [sys.executable, "-m", "iqpe.cli", "kerr", "--nbar", "1", "--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert read_json(out / "kerr.json")["qfi_iqpe"] == pytest.approx(8.0, rel=1e-4)


def test_cli_import_leaves_the_collector_alone():
    # only run() freezes; importing iqpe.cli to call main() changes nothing
    result = run_python(["-c", "import gc, iqpe.cli; print(gc.get_freeze_count(), gc.isenabled())"])
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "True"]


# run() as a script: its exit code, and whether it froze the import heap
RUN_SCRIPT = (
    "import gc, sys; from iqpe.cli import run; code = run(); "
    "print(gc.get_freeze_count() > 0); sys.exit(code)"
)


@pytest.mark.parametrize(
    "argv, code",
    [
        (["kerr", "--nbar", "4"], 0),
        (["rotation-sim", "--l", "0", "--alpha-deg", "0", "--seed", "1"], 1),
        (["fit", "--input", "{overflowing}"], 2),
    ],
    ids=["ok", "config-error", "contract-violation"],
)
def test_process_entries_match_main(tmp_path, capsys, argv, code):
    table = tmp_path / "phases.csv"
    table.write_text("l,phi_rad\n1,1e308\n2,-1e308\n3,1e308\n")
    argv = [arg.format(overflowing=table) for arg in argv]
    assert main(argv + ["--out", str(tmp_path / "main")]) == code
    err = capsys.readouterr().err.splitlines()
    module = run_python(["-m", "iqpe.cli", *argv, "--out", str(tmp_path / "module")])
    script = run_python(["-c", RUN_SCRIPT, *argv, "--out", str(tmp_path / "run")])
    # a child also prints the numpy warnings that pytest captures here
    assert (module.returncode, module.stderr.splitlines()[-len(err):]) == (code, err)
    assert (script.returncode, script.stderr.splitlines()[-len(err):]) == (code, err)
    assert script.stdout == "True\n"
    if code == 0:
        expected = artifact_bytes(tmp_path / "main")
        checksums = read_json(tmp_path / "main" / "manifest.json")["artifact_checksums"]
        for out in (tmp_path / "module", tmp_path / "run"):
            assert artifact_bytes(out) == expected
            assert read_json(out / "manifest.json")["artifact_checksums"] == checksums


# One value past each end of every ranged flag: the flag, then the arguments.
REFUSED_PAST_AN_END = [
    ("--order-n", "qfi-map --scenario rotation --order-n -1"),
    ("--order-n", "qfi-map --scenario rotation --order-n 301"),
    ("--resolution", "qfi-map --scenario birefringence --resolution 1"),
    ("--nbar", "kerr --nbar -5e-324"),
    ("--nbar", "kerr --nbar 1000000.0000000001"),
    ("--l", "rotation-sim --alpha-deg 0 --seed 1 --l 0"),
    ("--l", "rotation-sim --alpha-deg 0 --seed 1 --l 9007199254740993"),
    ("--alpha-deg", "rotation-sim --l 5 --seed 1 --alpha-deg -inf"),
    ("--alpha-deg", "rotation-sim --l 5 --seed 1 --alpha-deg inf"),
    ("--delta-phi-deg", "rotation-sim --l 5 --alpha-deg 0 --seed 1 --delta-phi-deg -180"),
    ("--delta-phi-deg",
     "rotation-sim --l 5 --alpha-deg 0 --seed 1 --delta-phi-deg 180.00000000000003"),
    ("--nu", "rotation-sim --l 5 --alpha-deg 0 --seed 1 --nu 999"),
    ("--nu", "rotation-sim --l 5 --alpha-deg 0 --seed 1 --nu 9223372036854775808"),
    ("--trials", "rotation-sim --l 5 --alpha-deg 0 --seed 1 --trials 99"),
    ("--trials", "rotation-sim --l 5 --alpha-deg 0 --seed 1 --trials 10000001"),
    ("--seed", "rotation-sim --l 5 --alpha-deg 0 --seed -1"),
    ("--seed", "rotation-sim --l 5 --alpha-deg 0 --seed 18446744073709551616"),
    ("--seed", f"experiment --config {FIT_CONFIG} --seed -1"),
    ("--seed", f"experiment --config {FIT_CONFIG} --seed 18446744073709551616"),
]


@pytest.mark.parametrize("flag, args", REFUSED_PAST_AN_END,
                         ids=[f"{args.split()[0]} {args.split()[-2]} {args.split()[-1]}"
                              for _, args in REFUSED_PAST_AN_END])
def test_value_past_an_end_is_refused_by_a_fresh_process(tmp_path, flag, args):
    # each exits 1 with exactly one error line naming the flag, and no traceback
    result = run_python(["-m", "iqpe.cli", *args.split(), "--out", str(tmp_path / "refused")])
    assert result.returncode == 1
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith(f"error: argument {flag}: ")
    assert "Traceback" not in result.stderr


def test_unknown_subcommand_is_config_error():
    assert main(["frobnicate"]) == 1


# ---------------------------------------------------------------------------
# outside numbers: checked where they enter, never written as NaN
# ---------------------------------------------------------------------------


def assert_no_non_finite_tokens(out_dir):
    for path in out_dir.iterdir() if out_dir.exists() else ():
        text = path.read_text()
        assert not re.search(r"\b(nan|inf|infinity)\b", text, re.IGNORECASE), path.name


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["kerr", "--nbar", "nan"], "--nbar"),
        (["kerr", "--nbar", "inf"], "--nbar"),
        (["rotation-sim", "--l", "5", "--alpha-deg", "nan", "--seed", "1"], "--alpha-deg"),
        (["rotation-sim", "--l", "5", "--alpha-deg", "0", "--delta-phi-deg", "inf",
          "--seed", "1"], "--delta-phi-deg"),
        (["rotation-sim", "--l", "5", "--alpha-deg", "inf", "--seed", "1"], "--alpha-deg"),
        (["rotation-sim", "--l", "5", "--alpha-deg=-inf", "--seed", "1"], "--alpha-deg"),
        (["rotation-sim", "--l", "5", "--alpha-deg", "-inf", "--seed", "1"], "--alpha-deg"),
    ],
)
def test_non_finite_flag_is_config_error(tmp_path, capsys, argv, flag):
    assert main(argv + ["--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert flag in err
    assert "must be a finite number" in err


@pytest.mark.parametrize(
    "argv, flag, rule",
    [
        (["experiment", "--config", SPECTRUM_CONFIG, "--seed", "-1"], "--seed",
         "an integer in [0, 18446744073709551615]"),
        (["rotation-sim", "--l", "5", "--alpha-deg", "0", "--seed", "-3"], "--seed",
         "an integer in [0, 18446744073709551615]"),
        (["rotation-sim", "--l", "0", "--alpha-deg", "0", "--seed", "1"], "--l",
         "an integer in [1, 9007199254740992]"),
        (["rotation-sim", "--l", "5", "--alpha-deg", "0", "--seed", "1", "--trials", "5"],
         "--trials", "an integer in [100, 10000000]"),
        # 8 bytes an estimate: 10^12 trials asked numpy for 7.28 TiB
        (["rotation-sim", "--l", "1", "--alpha-deg", "0", "--seed", "1", "--trials",
          "1000000000000"], "--trials", "an integer in [100, 10000000]"),
        (["rotation-sim", "--l", "5", "--alpha-deg", "0", "--seed", "1", "--nu", "999"],
         "--nu", "an integer in [1000, 9223372036854775807]"),
        (["rotation-sim", "--l", "5", "--alpha-deg", "0", "--seed", "1", "--nu",
          "100000000000000000000"], "--nu", "an integer in [1000, 9223372036854775807]"),
        (["qfi-map", "--scenario", "rotation", "--order-n", "301"], "--order-n", "[0, 300]"),
        (["qfi-map", "--scenario", "rotation", "--order-n", "4", "--resolution", "1"],
         "--resolution", ">= 2"),
        (["kerr", "--nbar", "-1"], "--nbar", "a finite number in [0, 1000000]"),
        (["kerr", "--nbar", "-1e-3"], "--nbar", "a finite number in [0, 1000000]"),
        (["kerr", "--nbar", "1000001"], "--nbar", "a finite number in [0, 1000000]"),
        (["qfi-map", "--scenario", "birefringence", "--order-n", "3"], "--order-n",
         "only to the rotation scenario"),
        (["rotation-sim", "--l", "5", "--alpha-deg", "0", "--delta-phi-deg", "200",
          "--seed", "1"], "--delta-phi-deg", "in (-180, 180]"),
        (["rotation-sim", "--l", "5", "--alpha-deg", "0", "--delta-phi-deg", "-180",
          "--seed", "1"], "--delta-phi-deg", "in (-180, 180]"),
        # Philox takes a 64-bit seed word: 2^64 would draw the streams of seed 0
        (["experiment", "--config", SPECTRUM_CONFIG, "--seed", str(2**64)], "--seed",
         "an integer in [0, 18446744073709551615]"),
        (["rotation-sim", "--l", "5", "--alpha-deg", "0", "--seed", str(2**64)], "--seed",
         "an integer in [0, 18446744073709551615]"),
    ],
    ids=["experiment-seed", "sim-seed", "sim-l", "sim-trials", "sim-trials-cap", "sim-nu",
         "sim-nu-cap", "map-order",
         "map-resolution", "kerr-nbar", "kerr-nbar-exponent", "kerr-nbar-cap",
         "birefringence-order", "sim-delta-phi", "sim-delta-phi-edge", "experiment-seed-cap",
         "sim-seed-cap"],
)
def test_out_of_range_flag_is_config_error(tmp_path, capsys, argv, flag, rule):
    out = tmp_path / "x"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert flag in err and rule in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("nu", [protocol.NU.lo, protocol.NU.hi], ids=["min", "max"])
def test_nu_range_ends_run(tmp_path, capsys, nu):
    # both ends of the --nu range README states; one past the top is one
    # error line, not the OverflowError of Generator.binomial
    argv = ["rotation-sim", "--l", "5", "--alpha-deg", "0.001", "--trials", "100",
            "--seed", "1", "--nu"]
    assert main(argv + [str(nu), "--out", str(tmp_path / "ok")]) == 0
    assert read_json(tmp_path / "ok" / "rotation_sim.json")["nu"] == nu
    capsys.readouterr()
    beyond = nu - 1 if nu == protocol.NU.lo else nu + 1
    assert main(argv + [str(beyond), "--out", str(tmp_path / "bad")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: argument --nu:")


def _monte_carlo(nu=1000, trials=100):
    return protocol.monte_carlo_precision(protocol.RotationProtocol(1), 0.0, nu, trials, 0)


_SIM = ["rotation-sim", "--l", "5", "--alpha-deg", "0", "--seed", "1"]

# Every ranged flag: the argv before it, the flag, the Range of the module
# that owns its quantity, whether the flag is in degrees, and a library call
# that takes the quantity (in radians) and refuses by that Range.  The true
# angle's own rule is finiteness; the fold that every library path also
# holds it to needs l and delta_phi, so it is checked after parsing.
RANGED_FLAGS = {
    "order-n": (["qfi-map", "--scenario", "rotation"], "--order-n", scenarios.LADDER_ORDER,
                False, scenarios.modal_ladder),
    "resolution": (["qfi-map", "--scenario", "birefringence"], "--resolution",
                   scenarios.RESOLUTION, False, scenarios.birefringence_qfi_map),
    "nbar": (["kerr"], "--nbar", scenarios.NBAR, False, scenarios.kerr_truncation),
    "l": (_SIM, "--l", protocol.OAM_L, False, protocol.RotationProtocol),
    "alpha-deg": (_SIM, "--alpha-deg", FINITE, True, lambda alpha: FINITE.check("alpha", alpha)),
    "delta-phi-deg": (_SIM, "--delta-phi-deg", protocol.DELTA_PHI, True,
                      lambda offset: protocol.RotationProtocol(1, offset)),
    "nu": (_SIM, "--nu", protocol.NU, False, lambda nu: _monte_carlo(nu=nu)),
    # monte_carlo_precision refuses by TRIALS first (test_protocol checks
    # both ends), but a run at the top draws 10^7 trials
    "trials": (_SIM, "--trials", protocol.TRIALS, False,
               lambda trials: protocol.TRIALS.check("trials", trials)),
    "sim-seed": (_SIM, "--seed", protocol.SEED, False, lambda seed: protocol.trial_rng(seed, 0)),
    "experiment-seed": (["experiment", "--config", FIT_CONFIG], "--seed", protocol.SEED, False,
                        lambda seed: dataclasses.replace(emulator.parse_run_config(FIT_CONFIG),
                                                         seed=seed)),
}


def _edges(rule, degrees):
    """Each finite end of ``rule`` in the flag's unit, with the values one
    step to either side; NaN, +-inf and 0 as well for a number."""
    values = []
    for end in (rule.lo, rule.hi):
        if rule.integer and math.isfinite(end):
            values += [end - 1, end, end + 1]
        elif math.isfinite(end):
            end = math.degrees(end) if degrees else end
            values += [math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf)]
    return values if rule.integer else values + [math.nan, math.inf, -math.inf, 0.0]


_NUMBER = r"-?\d+(?:\.\d*)?(?:e[-+]?\d+)?"


def _rule_of(message, prefix):
    """The rule text of a refusal ``prefix`` must be <rule>, got <value>, as
    its words (numbers replaced by #) and its numbers."""
    rule = message.split(f"{prefix} must be ", 1)[1].rsplit(", got ", 1)[0]
    return re.sub(_NUMBER, "#", rule), [float(n) for n in re.findall(_NUMBER, rule)]


@pytest.mark.parametrize("case", sorted(RANGED_FLAGS))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_flags_and_library_calls_refuse_alike(case, data):
    # the flag-side twin of test_parsed_and_built_configs_refuse_alike: a
    # flag exits 1 exactly when the library refuses the same value, with the
    # same rule, and a degree flag states the bounds of the radians in degrees
    before, flag, rule, degrees, call = RANGED_FLAGS[case]
    value = data.draw(st.sampled_from(_edges(rule, degrees)))
    try:
        call(math.radians(value) if degrees else value)
        library = None
    except (ContractViolation, emulator.ConfigError) as exc:
        library = str(exc)
    err = io.StringIO()
    commands = {name: lambda args: None for name in dir(cli) if name.startswith("_cmd_")}
    with contextlib.redirect_stderr(err), mock.patch.multiple(cli, **commands):
        code = main(before + [flag, repr(value), "--out", "unused"])
    err = err.getvalue()
    if library is None:
        assert (code, err) == (0, "")
        return
    assert code == 1 and err.count("\n") == 1
    assert err.startswith(f"error: argument {flag}: must be ")
    flag_words, flag_numbers = _rule_of(err, f"argument {flag}:")
    words, numbers = _rule_of(library, "")
    if degrees:
        assert flag_words == words + (" deg" if numbers else "")
        assert flag_numbers == pytest.approx([math.degrees(n) for n in numbers], rel=1e-8)
    else:
        assert (flag_words, flag_numbers) == (words, numbers)


@pytest.mark.parametrize(
    "config, code", [(SPECTRUM_CONFIG, 1), (FIT_CONFIG, 0)], ids=["spectrum", "fit"]
)
def test_band_above_nyquist_is_config_error_in_spectrum_mode(tmp_path, capsys, config, code):
    # sample_rate = 60e3 in both configs; a fit run takes no spectrum
    lines = Path(config).read_text().splitlines()
    lines = [line for line in lines if not line.startswith("band_hi_hz =")]
    lines.append("band_hi_hz = 40e3")
    bad = tmp_path / "bad.cfg"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["experiment", "--config", str(bad), "--out", str(tmp_path / "exp")]) == code
    if code:
        rate_line = next(k for k, line in enumerate(lines, 1) if line.startswith("sample_rate ="))
        err = capsys.readouterr().err
        assert f"{bad}:{len(lines)},{rate_line}:" in err
        assert "'band_hi_hz'" in err and "'sample_rate'" in err


@pytest.mark.parametrize("config", [SPECTRUM_CONFIG, FIT_CONFIG], ids=["spectrum", "fit"])
def test_signal_above_nyquist_is_config_error(tmp_path, capsys, config):
    # sample_rate = 60e3 in both configs, and both modes synthesize a record
    lines = Path(config).read_text().splitlines()
    freq_line = next(k for k, line in enumerate(lines, 1) if line.startswith("signal_freq_hz ="))
    rate_line = next(k for k, line in enumerate(lines, 1) if line.startswith("sample_rate ="))
    for value, code in (("30e3", 0), ("40e3", 1)):
        lines[freq_line - 1] = f"signal_freq_hz = {value}"
        bad = tmp_path / f"{value}.cfg"
        bad.write_text("\n".join(lines) + "\n")
        out = tmp_path / value
        assert main(["experiment", "--config", str(bad), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert f"{bad}:{freq_line},{rate_line}:" in err
            assert "'signal_freq_hz'" in err and "'sample_rate'" in err
            assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "freq, amp, offset, code",
    [
        ("20e3", "1e-2", "0", 1),  # 2*l*|A| = 3 rad
        ("20e3", "5e-3", "0.1", 1),  # 1.5 + 0.1 at the sinusoid's crest
        ("20e3", "5e-3", "0", 0),  # 1.5
        ("0", "5e-3", "-0.1", 0),  # a constant angle: |1.5 - 0.1|
        ("0", "5e-3", "0.1", 1),  # |1.5 + 0.1|
    ],
    ids=["amp-1e-2", "sine-past-fold", "sine-inside", "constant-inside", "constant-past-fold"],
)
def test_spectrum_phase_past_fold_is_config_error(tmp_path, capsys, freq, amp, offset, code):
    # the arcsin readout identifies the angle only while |2*l*alpha + delta_phi|
    # stays below pi/2; the shipped spectrum config has l = 150
    lines = Path(SPECTRUM_CONFIG).read_text().splitlines()
    at = {line.split(" =")[0]: k for k, line in enumerate(lines, 1) if " = " in line}
    for key, value in (("signal_freq_hz", freq), ("signal_amp_rad", amp), ("delta_phi_rad", offset)):
        lines[at[key] - 1] = f"{key} = {value}"
    cfg = tmp_path / "fold.cfg"
    cfg.write_text("\n".join(lines) + "\n")
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(cfg), "--out", str(out)]) == code
    if code:
        err = capsys.readouterr().err
        assert f"{cfg}:{at['l']},{at['signal_amp_rad']},{at['delta_phi_rad']}:" in err
        assert "'signal_amp_rad'" in err and "pi/2" in err
        assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("power_w", "nan"),
        ("power_w", "inf"),
        ("duration_s", "0"),
        ("sample_rate", "0"),
        ("sample_rate", "-60e3"),
    ],
)
def test_experiment_rejects_unusable_number(tmp_path, capsys, key, value):
    text = Path(FIT_CONFIG).read_text()
    config = tmp_path / "bad.cfg"
    config.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.MULTILINE))
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert_no_non_finite_tokens(out)


@pytest.mark.parametrize(
    "key, value",
    [
        ("noise.phase_asd", "-1"),
        ("noise.shot", "-0.5"),
        ("power_w", "0"),
        ("power_w", "-1e-3"),
        ("seed", "-1"),
        ("seed", str(2**64)),
        ("signal_freq_hz", "-20e3"),
        ("band_lo_hz", "-1"),
    ],
)
def test_experiment_out_of_range_value_names_key_and_line(tmp_path, capsys, key, value):
    lines = Path(SPECTRUM_CONFIG).read_text().splitlines()
    lineno = next(k for k, line in enumerate(lines, start=1) if line.startswith(f"{key} ="))
    lines[lineno - 1] = f"{key} = {value}"
    config = tmp_path / "bad.cfg"
    config.write_text("\n".join(lines) + "\n")
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{config}:{lineno}:" in err
    assert repr(key) in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "key, value, keys",
    [
        ("duration_s", "0", ("duration_s", "sample_rate")),
        ("l", "1, 4", ("mode", "l")),
        # each l writes record_l<l>.csv, so a repeated l would overwrite its own files
        ("l", "1, 1, 5, 9", ("l",)),
    ],
    ids=["no-samples", "fit-two-l", "repeated-l"],
)
def test_run_config_rule_names_the_lines_of_its_keys(tmp_path, capsys, key, value, keys):
    lines = Path(FIT_CONFIG).read_text().splitlines() + ["noise.phase_asd = 1e-6", "seed = 5"]
    lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line for line in lines]
    at = {line.split(" =")[0]: k for k, line in enumerate(lines, 1) if " = " in line}
    config = tmp_path / "bad.cfg"
    config.write_text("\n".join(lines) + "\n")
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}:{','.join(str(at[k]) for k in keys)}: ")
    assert key in err
    assert not (out / "manifest.json").exists()


def test_experiment_inverted_band_names_both_keys(tmp_path, capsys):
    text = Path(SPECTRUM_CONFIG).read_text()
    config = tmp_path / "bad.cfg"
    config.write_text(re.sub(r"^band_lo_hz = .*$", "band_lo_hz = 29e3", text, flags=re.MULTILINE))
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"{config}:" in err
    assert "'band_lo_hz'" in err and "'band_hi_hz'" in err
    assert not (out / "manifest.json").exists()


def test_oam_values_past_2_to_53_are_refused(tmp_path, capsys):
    # 2*l is exact in float64 up to 2^53; a 401-digit l once ended in an
    # OverflowError traceback, from the flag and from a fit table alike
    huge = str(10**400)
    argv = ["rotation-sim", "--alpha-deg", "0", "--seed", "1", "--l", huge]
    assert main(argv + ["--out", str(tmp_path / "sim")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --l: must be an integer in [1, 9007199254740992], got")
    assert err.count("\n") == 1
    table = tmp_path / "phases.csv"
    table.write_text(f"l,phi_rad\n1,0.1\n{huge},0.2\n3,0.3\n")
    assert main(["fit", "--input", str(table), "--out", str(tmp_path / "fit")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {table}:3: bad numeric value: must be an integer in "
                          "[-9007199254740992, 9007199254740992], got")
    # the ends themselves run
    table.write_text(f"l,phi_rad\n{-2**53},0.1\n0,0.2\n{2**53},0.3\n")
    assert main(["fit", "--input", str(table), "--out", str(tmp_path / "ends")]) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_fit_rejects_non_finite_phase(tmp_path, capsys, value):
    table = tmp_path / "phases.csv"
    table.write_text(f"l,phi_rad\n1,0.1\n2,{value}\n3,0.3\n")
    out = tmp_path / "fit"
    assert main(["fit", "--input", str(table), "--out", str(out)]) == 1
    assert f"{table}:3" in capsys.readouterr().err
    assert_no_non_finite_tokens(out)


def test_overflowing_power_writes_no_non_finite_artifact(tmp_path, capsys):
    # finite inputs whose channels overflow: the run fails instead of
    # writing alpha_hat_rad: NaN
    text = Path(FIT_CONFIG).read_text()
    config = tmp_path / "huge.cfg"
    config.write_text(re.sub(r"^power_w = .*$", "power_w = 1e308", text, flags=re.MULTILINE))
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(config), "--out", str(out)]) == 2
    assert "record_l1.csv" in capsys.readouterr().err
    assert_no_non_finite_tokens(out)


def test_overflowing_fit_writes_no_nan(tmp_path, capsys):
    table = tmp_path / "phases.csv"
    table.write_text("l,phi_rad\n1,1e308\n2,-1e308\n3,1e308\n")
    out = tmp_path / "fit"
    assert main(["fit", "--input", str(table), "--out", str(out)]) == 2
    assert "fit.json" in capsys.readouterr().err
    assert_no_non_finite_tokens(out)
