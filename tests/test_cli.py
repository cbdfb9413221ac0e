"""CLI surface: artifacts, schemas, determinism, exit codes."""

import ast
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
import tempfile
from pathlib import Path
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqpe import cli, emulator, protocol, qfi, scenarios
from iqpe.cli import build_parser, main
from iqpe.statekit import FINITE, ContractViolation, PureState

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


def test_order_zero_map_counts_its_dead_zone(tmp_path):
    # the order-0 map is 0 everywhere, so all its points are in the dead
    # zone; the summary counts them and leaves their rows to map.csv
    out = tmp_path / "map"
    assert main(["qfi-map", "--scenario", "rotation", "--order-n", "0", "--resolution", "64",
                 "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["dead_zone"] == {"threshold": cli.DEAD_ZONE_THRESHOLD, "count": 2 * 64**2}
    assert (out / "summary.json").stat().st_size < 1000
    jsonschema.validate(summary, cli._schema("qfi_map_summary.v2.json"))


@pytest.mark.parametrize("scenario", [
    ["qfi-map", "--scenario", "birefringence", "--resolution", "8"],
    ["qfi-map", "--scenario", "rotation", "--order-n", "300", "--resolution", "8"],
    ["kerr", "--nbar", "1e6"],
])
def test_qfi_map_runs_its_closed_forms_alone(tmp_path, monkeypatch, scenario):
    # the coherent-state engine and the Fock-space probe, the maps' and
    # kerr's roads to qfi_batch, are the tests' oracles: no scenario command
    # builds a state or calls the kernel, through any module's binding of it
    def refuse(*args, **kwargs):
        raise AssertionError(f"{scenario[0]} built a state or called qfi_batch")

    for name, module in list(sys.modules.items()):
        if name == "iqpe" or name.startswith("iqpe."):
            for key, value in list(vars(module).items()):
                if value is qfi.qfi_batch:
                    monkeypatch.setattr(module, key, refuse)
    monkeypatch.setattr(PureState, "__post_init__", refuse)
    out = tmp_path / "run"
    assert main([*scenario, "--out", str(out)]) == 0
    checksums = read_json(out / "manifest.json")["artifact_checksums"]
    artifacts = {"kerr.json"} if scenario[0] == "kerr" else {"map.csv", "summary.json"}
    assert set(checksums) == artifacts


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


def test_kerr_negative_zero_reads_zero_qfis(tmp_path):
    # nbar keeps its sign as given, but the QFIs of a vacuum probe are 0.0:
    # 4.0 * nbar would write "qfi_sqpe": -0.0
    out = tmp_path / "kerr"
    assert main(["kerr", "--nbar", "-0", "--out", str(out)]) == 0
    assert (out / "kerr.json").read_bytes() == (
        b'{\n  "nbar": -0.0,\n  "qfi_iqpe": 0.0,\n  "qfi_sqpe": 0.0,\n  "truncation": 1\n}\n'
    )


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


def test_fit_subcommand_chooses_the_arcsin_branch(tmp_path, capsys):
    # a table of arcsin readouts, as an experiment's phi_means: l = 20 and 30
    # read pi - 1.34 and pi - 2.0, and fit unfolds them as experiment does
    alpha, offset = (2.0 - 0.02) / 60.0, 0.02
    table = tmp_path / "phases.csv"
    table.write_text("l,phi_rad\n" + "".join(
        f"{l},{math.asin(math.sin(2 * l * alpha + offset))!r}\n" for l in (1, 4, 10, 20, 30)))
    out = tmp_path / "fit"
    assert main(["fit", "--input", str(table), "--out", str(out)]) == 0
    assert read_json(out / "fit.json")["alpha_hat_rad"] == pytest.approx(alpha, rel=1e-12)
    # a readout on the fold itself cannot be placed: exit 2, naming its l
    table.write_text(f"l,phi_rad\n1,0.5\n2,1.0\n3,{math.pi / 2.0!r}\n")
    assert main(["fit", "--input", str(table), "--out", str(tmp_path / "fold")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric contract violation: the phase ") and "at l = 3 " in err
    assert not (tmp_path / "fold" / "fit.json").exists()


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


def test_failed_artifact_write_is_one_error_line_and_leaves_no_temporary(tmp_path, capsys):
    # a directory where map.csv belongs: os.replace once raised
    # IsADirectoryError out of main() and left .map.csv.tmp-<pid> behind
    out = tmp_path / "out"
    (out / "map.csv" / "x").mkdir(parents=True)
    argv = ["qfi-map", "--scenario", "rotation", "--order-n", "2", "--resolution", "4"]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: cannot write {str(out / 'map.csv')!r}: ")
    assert sorted(p.name for p in out.iterdir()) == ["map.csv"]


def test_bench_tracer_finds_its_targets(tmp_path):
    # bench/tracer.py wraps named functions of every layer and exits 1 when
    # one is missing, so a rename here must update its TARGETS too.  Its
    # artifact counters add up what cli._atomic_write is given: they must
    # read the files and bytes each run left, a map and a fit's 12 CSVs
    commands = {
        "map": ["qfi-map", "--scenario", "birefringence", "--resolution", "2"],
        "fit": ["experiment", "--config", str(REPO / FIT_CONFIG)],
    }
    for name, argv in commands.items():
        spans, out = tmp_path / f"{name}.json", tmp_path / name
        result = subprocess.run(
            [sys.executable, str(REPO / "bench" / "tracer.py"), str(spans), name, "--",
             *argv, "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert result.returncode == 0, result.stderr
        counters = read_json(spans)["counters"]
        files = list(out.iterdir())
        assert counters["cli.artifact_files"] == len(files)
        assert counters["cli.artifact_bytes"] == sum(path.stat().st_size for path in files)
    assert len(list((tmp_path / "fit").glob("*.csv"))) == 12


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
    # the QFIs are integer closed forms and the truncation a loop of math
    # logs: neither reaches for scipy.special
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
    # OpenSSL's _hashlib, a few MB of peak RSS, into every run.  Runs that
    # draw no noise do not even compile the normal sampler
    argv = argv + ["--out", str(tmp_path / "out")]
    code = (
        f"import sys, iqpe.cli; assert iqpe.cli.main({argv!r}) == 0; "
        "print(sorted(m for m in sys.modules "
        "if m in ('hashlib', '_hashlib', 'iqpe.ziggurat')))"
    )
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["rotation-sim", "--l", "150", "--alpha-deg", "0.0005", "--nu", "1000000",
         "--trials", "5000", "--seed", "3"],
        ["experiment", "--config", str(REPO / SPECTRUM_CONFIG)],
    ],
    ids=["rotation-sim", "experiment-spectrum"],
)
def test_command_with_random_draws_loads_no_numpy_random(tmp_path, argv):
    # the Monte Carlo's counts and the emulator's noise come from protocol's
    # own Philox and samplers; numpy.random would load OpenSSL's _hashlib
    # (secrets -> hmac -> hashlib)
    argv = argv + ["--out", str(tmp_path / "out")]
    code = (
        f"import sys, iqpe.cli; assert iqpe.cli.main({argv!r}) == 0; "
        "print(sorted(m for m in sys.modules "
        "if m in ('numpy.random', 'secrets', 'hashlib', '_hashlib')))"
    )
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_spectrum_run_loads_no_numpy_ma(tmp_path):
    # the noise floor is a sort, not np.median, whose NaN check imports
    # numpy.ma: 1.1 MB of a spectrum run's peak RSS
    argv = ["experiment", "--config", str(REPO / SPECTRUM_CONFIG), "--out", str(tmp_path / "x")]
    code = (f"import sys, iqpe.cli; assert iqpe.cli.main({argv!r}) == 0; "
            "print('numpy.ma' in sys.modules)")
    result = run_python(["-c", code])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


@pytest.mark.parametrize("size", [0, 1, 55, 56, 63, 64, 65, 2**20 + 3])
def test_checksum_is_sha256(size):
    # lengths around SHA-256's 64-byte block and its 8-byte length field
    data = random.Random(size).randbytes(size)
    assert cli.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_package_data_ships_every_data_file():
    # package-data patterns are globs relative to the package, as setuptools
    # reads them: a file under data/ or schemas/ that none matches, such as
    # the ziggurat tables, would be missing from a wheel
    text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("[tool.setuptools.package-data]", 1)[1].split("\n[", 1)[0]
    patterns = ast.literal_eval(re.search(r"^iqpe\s*=\s*(\[.*?\])", section, re.M | re.S)[1])
    package = REPO / "src" / "iqpe"
    shipped = {path for pattern in patterns for path in package.glob(pattern)}
    files = {path for folder in ("data", "schemas") for path in (package / folder).rglob("*")
             if path.is_file()}
    assert package / "data" / "ziggurat_tables.txt" in files
    assert sorted(map(str, files - shipped)) == []


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


# The README's command line examples ("ok" is its kerr example), then a
# refused flag and a numeric contract violation.
PROCESS_CASES = {
    "ok": ("kerr --nbar 4", 0),
    "readme-map": ("qfi-map --scenario rotation --order-n 4 --resolution 32", 0),
    "readme-map300": ("qfi-map --scenario rotation --order-n 300 --resolution 2", 0),
    "readme-biref": ("qfi-map --scenario birefringence", 0),
    "readme-sim": ("rotation-sim --l 50 --alpha-deg 0.0005 --nu 1000000 --trials 10000 --seed 7",
                   0),
    "readme-fit": (f"experiment --config {FIT_CONFIG}", 0),
    "readme-spec": (f"experiment --config {SPECTRUM_CONFIG}", 0),
    "readme-fit-only": ("fit --input {phases}", 0),
    "config-error": ("rotation-sim --l 0 --alpha-deg 0 --seed 1", 1),
    "contract-violation": ("fit --input {overflowing}", 2),
}


@pytest.mark.parametrize("argv, code", PROCESS_CASES.values(), ids=PROCESS_CASES.keys())
def test_process_entries_match_main(tmp_path, capsys, argv, code):
    # main() here, then `python -m iqpe.cli` and run(), which the console
    # script calls, each in a fresh process: the same exit code, error lines
    # and artifact bytes
    phases = tmp_path / "phases.csv"
    phases.write_text("l,phi_rad\n1,0.0045\n5,0.0205\n9,0.0365\n14,0.0565\n")
    overflowing = tmp_path / "overflowing.csv"
    overflowing.write_text("l,phi_rad\n1,1e308\n2,-1e308\n3,1e308\n")
    argv = [arg.format(phases=phases, overflowing=overflowing) for arg in argv.split()]
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


def test_no_command_diagonalizes(tmp_path, monkeypatch):
    # every generator a command reads is a spectrum known in closed form, so
    # an eigensolver that always fails stops none of them
    def no_eigh(*args, **kwargs):
        raise AssertionError("np.linalg.eigh called")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    phases = tmp_path / "phases.csv"
    phases.write_text("l,phi_rad\n1,0.0045\n5,0.0205\n9,0.0365\n14,0.0565\n")
    commands = [
        "qfi-map --scenario rotation --order-n 4 --resolution 8",
        "qfi-map --scenario birefringence --resolution 8",
        "kerr --nbar 4",
        "rotation-sim --l 50 --alpha-deg 0.0005 --trials 1000 --seed 7",
        f"experiment --config {FIT_CONFIG}",
        f"experiment --config {SPECTRUM_CONFIG}",
        f"fit --input {phases}",
    ]
    for k, argv in enumerate(commands):
        assert main(argv.split() + ["--out", str(tmp_path / str(k))]) == 0, argv


# One value past each end of every ranged flag: the flag, then the arguments.
REFUSED_PAST_AN_END = [
    ("--order-n", "qfi-map --scenario rotation --order-n -1"),
    ("--order-n", "qfi-map --scenario rotation --order-n 301"),
    ("--resolution", "qfi-map --scenario birefringence --resolution 1"),
    ("--resolution", "qfi-map --scenario birefringence --resolution 1025"),
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
         "--resolution", "an integer in [2, 1024]"),
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
    # both maps refuse by RESOLUTION in _grid_axes, but a map at the top
    # holds 2 * 1024^2 points
    "resolution": (["qfi-map", "--scenario", "birefringence"], "--resolution",
                   scenarios.RESOLUTION, False, scenarios._grid_axes),
    "nbar": (["kerr"], "--nbar", scenarios.NBAR, False, scenarios.kerr_qfi),
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


@pytest.mark.parametrize(
    "config, changes, keys",
    [
        # 600 samples: amplitude_spectrum refused the series with exit 2
        (SPECTRUM_CONFIG, {"duration_s": "0.01"}, ("duration_s", "sample_rate")),
        # 3 bins of 10 Hz: amplitude_spectrum refused the band with exit 2
        (SPECTRUM_CONFIG, {"band_hi_hz": "18.02e3"}, ("band_lo_hz", "band_hi_hz", "duration_s")),
        # 10^12 samples per record: 7.28 TiB asked of numpy
        (FIT_CONFIG, {"sample_rate": "1e9", "duration_s": "1000"},
         ("sample_rate", "duration_s", "l")),
        # infinite sample counts: round() raised an OverflowError
        (SPECTRUM_CONFIG, {"duration_s": "1e305"}, ("sample_rate", "duration_s", "l")),
        (SPECTRUM_CONFIG, {"duration_s": "-1e305"}, ("duration_s", "sample_rate")),
    ],
    ids=["spectrum-600-samples", "band-3-bins", "record-past-the-budget", "infinite-record",
         "negative-infinite-record"],
)
def test_record_size_is_a_config_error(tmp_path, capsys, monkeypatch, config, changes, keys):
    # the rules that size a record and its spectrum refuse a config before
    # anything is drawn, naming the lines of their keys
    def no_synthesis(*args, **kwargs):
        raise AssertionError("a record was synthesized")

    monkeypatch.setattr(emulator, "synthesize_record", no_synthesis)
    lines = [next((f"{key} = {value}" for key, value in changes.items()
                   if line.startswith(f"{key} =")), line)
             for line in Path(config).read_text().splitlines()]
    at = {line.split(" =")[0]: k for k, line in enumerate(lines, 1) if " = " in line}
    bad = tmp_path / "bad.cfg"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "exp"
    assert main(["experiment", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"error: {bad}:{','.join(str(at[key]) for key in keys)}: ")
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


# ---------------------------------------------------------------------------
# the contract of the whole CLI surface
# ---------------------------------------------------------------------------


def _past_ends(rule, degrees=False):
    """One representable value past each finite end of ``rule``, in the flag's
    unit; NaN and +-inf for a rule without finite ends."""
    values = []
    for end, kind, away in ((rule.lo, rule.ends[0], -math.inf), (rule.hi, rule.ends[1], math.inf)):
        if rule.integer and math.isfinite(end):
            values.append(end + (1 if away > 0 else -1))
        elif math.isfinite(end):
            end = math.degrees(end) if degrees else end
            values.append(end if kind in "()" else math.nextafter(end, away))
    return values or [math.nan, math.inf, -math.inf]


def _ranged(rule, inside, past, degrees=False):
    """One step past an end of ``rule`` if ``past``, else a value of
    ``inside`` or an end of ``rule`` that it holds."""
    if past:
        return st.sampled_from(_past_ends(rule, degrees))
    ends = [end for end in (rule.lo, rule.hi) if math.isfinite(end) and rule.holds(end)]
    if not ends:
        return inside
    return st.one_of(inside, st.sampled_from([math.degrees(e) if degrees else e for e in ends]))


@st.composite
def _alpha_near_a_refusal(draw, l, delta_phi_deg, nu, trials):
    """A true angle in degrees on, or a few floats around, an end of the fold
    or of the minority-channel rule at the drawn l, offset, nu and trials."""
    l = l if protocol.OAM_L.holds(l) else 1
    offset = math.radians(delta_phi_deg) if math.isfinite(delta_phi_deg) else 0.0
    rule = protocol.minority_phases(nu, trials)
    phase = draw(st.sampled_from([rule.lo, rule.hi, protocol.FOLD.lo, protocol.FOLD.hi]))
    alpha = math.degrees((phase - offset) / (2.0 * l))
    for _ in range(draw(st.integers(0, 3))):
        alpha = math.nextafter(alpha, draw(st.sampled_from([-math.inf, math.inf])))
    return alpha


@st.composite
def cli_call(draw):
    """A subcommand's argv and, for ``fit``, its table.  Each value comes
    from its range or is an end of it; at most one goes one step past an
    end.  Sizes stay at what a test can afford."""
    command = draw(st.sampled_from(["qfi-map", "kerr", "rotation-sim", "fit"]))
    if command == "qfi-map":
        past = draw(st.one_of(st.none(), st.sampled_from(["--order-n", "--resolution"])))
        argv = ["qfi-map", "--scenario", draw(st.sampled_from(["rotation", "birefringence"]))]
        if past == "--order-n" or draw(st.booleans()):
            argv += ["--order-n", draw(_ranged(scenarios.LADDER_ORDER, st.integers(0, 300),
                                               past == "--order-n"))]
        # a map at the top of RESOLUTION holds 2 * 1024^2 points
        resolution = _ranged(scenarios.RESOLUTION, st.integers(2, 16), past == "--resolution")
        argv += ["--resolution", draw(resolution.filter(lambda r: r != scenarios.RESOLUTION.hi))]
        return [str(arg) for arg in argv], None
    if command == "kerr":
        nbar = scenarios.NBAR
        nbar = draw(_ranged(nbar, st.floats(nbar.lo, nbar.hi), draw(st.booleans())))
        return ["kerr", "--nbar", repr(nbar)], None
    if command == "rotation-sim":
        past = draw(st.one_of(st.none(), st.sampled_from(["l", "offset", "nu", "trials", "seed",
                                                          "alpha"])))
        l = draw(_ranged(protocol.OAM_L, st.sampled_from([1, 2, 5, 150, 4242]), past == "l"))
        offset = draw(_ranged(protocol.DELTA_PHI, st.floats(-180.0, 180.0, exclude_min=True),
                              past == "offset", degrees=True))
        nu = draw(_ranged(protocol.NU, st.integers(protocol.NU.lo, protocol.NU.hi), past == "nu"))
        # a run at the top of TRIALS draws 10^7 trials
        trials = _ranged(protocol.TRIALS, st.sampled_from([100, 101, 2000]), past == "trials")
        trials = draw(trials.filter(lambda t: t != protocol.TRIALS.hi))
        seed = draw(_ranged(protocol.SEED, st.integers(protocol.SEED.lo, protocol.SEED.hi),
                            past == "seed"))
        alpha = draw(st.sampled_from(_past_ends(FINITE)) if past == "alpha"
                     else _alpha_near_a_refusal(l, offset, nu, trials))
        argv = ["rotation-sim", "--l", str(l), f"--alpha-deg={alpha!r}",
                f"--delta-phi-deg={offset!r}", "--nu", str(nu), "--trials", str(trials),
                "--seed", str(seed)]
        return argv, None
    past = draw(st.booleans())
    ls = _ranged(emulator.FIT_OAM_L, st.integers(-8, 8), past and draw(st.booleans()))
    phases = st.one_of(st.floats(-3.0, 3.0), st.floats(allow_nan=False, allow_infinity=False))
    phases = st.sampled_from(_past_ends(FINITE)) if past and draw(st.booleans()) else phases
    rows = draw(st.lists(st.tuples(ls, phases), min_size=3, max_size=6, unique_by=lambda r: r[0]))
    return ["fit"], "l,phi_rad\n" + "".join(f"{l},{phi!r}\n" for l, phi in rows)


def _finite_artifacts(out):
    """Every JSON number and CSV cell of the run's files, each finite."""
    for path in out.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            numbers, todo = [], [json.loads(text, parse_constant=float)]
            while todo:
                value = todo.pop()
                if isinstance(value, dict):
                    todo += value.values()
                elif isinstance(value, list):
                    todo += value
                elif isinstance(value, float):
                    numbers.append(value)
        else:
            numbers = [float(cell) for line in text.splitlines()[1:] for cell in line.split(",")]
        assert all(map(math.isfinite, numbers)), path.name


def _check_exit_contract(argv, input_flag=None, text=None):
    """Run ``argv`` through ``main()``, with ``text`` written to a file that
    ``input_flag`` names: the exit code is 0, 1 or 2, a failure is one error
    line, and a run that succeeds writes only finite numbers.  An exception
    out of ``main()`` fails the caller with its traceback."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if text is not None:
            (tmp / "input").write_text(text)
            argv = argv + [input_flag, str(tmp / "input")]
        with contextlib.redirect_stderr(err):
            code = main(argv + ["--out", str(tmp / "out")])
        err = err.getvalue()
        assert code in (0, 1, 2), (argv, err)
        if code == 0:
            assert err == ""
            _finite_artifacts(tmp / "out")
        else:
            assert err.count("\n") == 1, err
            assert err.startswith(("error: ", "numeric contract violation: ")), err
    return code, err


@settings(max_examples=80, deadline=None)
@given(call=cli_call())
def test_every_cli_call_keeps_the_exit_contract(call):
    # whatever a flag or a fit table holds, main() returns 0, 1 or 2, a
    # failure is one error line, and a run that succeeds writes only finite
    # numbers.  rotation-sim refuses every angle the Monte Carlo cannot draw
    # before it draws, so it never reaches the binomial kernel's own refusal,
    # and qfi-map's maps are closed forms with no numerical contract
    argv, table = call
    code, err = _check_exit_contract(argv, "--input", table)
    assert not (argv[0] in ("rotation-sim", "qfi-map") and code == 2), err


# Each run-config key but mode and l, with the range emulator holds it to.
CONFIG_KEY_RULES = {key: spec[2] for key, spec in emulator._CONFIG_TABLE.items()
                    if key not in ("mode", "l")}

_LARGEST = sys.float_info.max


@st.composite
def experiment_config(draw):
    """A fit or spectrum run config.  Each key comes from its rule's range or
    is an end of it; at most one goes one step past an end.  A record that
    runs holds at most 4096 samples; longer durations are ones the sample
    budget refuses before anything is drawn."""
    mode = draw(st.sampled_from(["fit", "spectrum"]))
    past = draw(st.one_of(st.none(), st.sampled_from(["l", *CONFIG_KEY_RULES])))
    rate = st.one_of(st.sampled_from([60e3, 200e3]), st.floats(1e3, 1e6))
    rate = draw(_ranged(emulator._POSITIVE, rate, past == "sample_rate"))
    nyquist = rate / 2.0 if emulator._POSITIVE.holds(rate) else 1e3
    samples = draw(st.integers(1024 if mode == "spectrum" else 1, 4096))
    band = sorted(draw(st.lists(st.floats(0.0, nyquist), min_size=2, max_size=2)))
    anywhere = st.floats(allow_nan=False, allow_infinity=False)
    inside = {
        "power_w": st.one_of(st.floats(1e-6, 1.0), st.floats(0.0, _LARGEST, exclude_min=True)),
        "delta_phi_rad": st.one_of(st.floats(-0.2, 0.2), anywhere),
        "signal_freq_hz": st.floats(0.0, nyquist),
        "signal_amp_rad": st.one_of(st.floats(-1e-4, 1e-4), anywhere),
        "sample_rate": st.just(rate),
        # a record that runs three times in seven; else no samples, or more
        # than the budget
        "duration_s": st.sampled_from([samples * 2.0 / nyquist] * 3
                                      + [0.0, -1.0, -_LARGEST, _LARGEST]),
        "band_lo_hz": st.just(band[0]),
        "band_hi_hz": st.just(band[1]),
        "noise.phase_asd": st.floats(0.0, 1e-5),
        "noise.shot": st.floats(0.0, 2.0),
        "seed": st.integers(protocol.SEED.lo, protocol.SEED.hi),
    }
    if mode == "spectrum":
        ls = [draw(_ranged(protocol.OAM_L, st.integers(1, 200), past == "l"))]
    else:
        oam = emulator._CONFIG_TABLE["l"][2]
        ls = draw(st.lists(_ranged(oam, st.integers(0, 40), False), min_size=3, max_size=4,
                           unique=True))
        if past == "l":
            ls[draw(st.integers(0, len(ls) - 1))] = draw(st.sampled_from(_past_ends(oam)))
    lines = [f"mode = {mode}", f"l = {', '.join(map(str, ls))}"]
    for key, rule in CONFIG_KEY_RULES.items():
        required = emulator._CONFIG_TABLE[key][1] is emulator._REQUIRED
        # noise takes a seed; a run without one is refused one time in four
        seeded = key == "seed" and any(line.startswith("noise.") for line in lines)
        if key == past or required or draw(st.booleans()) or (seeded and draw(st.booleans())):
            value = draw(_ranged(rule, inside[key], key == past))
            lines.append(f"{key} = {value!r}")
    return "\n".join(draw(st.permutations(lines))) + "\n"


@settings(max_examples=40, deadline=None)
@given(config=experiment_config())
def test_every_experiment_config_keeps_the_exit_contract(config):
    # the run-config twin of the flag property above
    _check_exit_contract(["experiment"], "--config", config)
