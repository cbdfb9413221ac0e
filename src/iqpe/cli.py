"""Command-line surface: every pipeline as a reproducible run.

Each subcommand writes its CSV/JSON artifacts plus a run manifest with the
SHA-256 checksums of exactly those artifacts into the output directory.
Runs are deterministic given (subcommand, config, seed): stochastic
subcommands require an explicit seed and no artifact embeds wall-clock
state.  All files are written atomically (temp file in the target
directory, then rename).

Angles are accepted in degrees on the command line; every file artifact
stores radians.

Exit codes: 0 success, 1 configuration/usage error, 2 numeric contract
violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Optional

import jsonschema
import numpy as np

from . import emulator, protocol, scenarios
from .emulator import ConfigError
from .statekit import FINITE, ContractViolation, Range

# CPython's own SHA-256 (the same digests): hashlib would load OpenSSL's
# _hashlib, a few MB of every run's peak RSS, to checksum a few KB
try:
    from _sha2 import sha256  # Python >= 3.12
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:  # a CPython built without its own hashes
        from hashlib import sha256

__all__ = ["main", "run"]

DEAD_ZONE_THRESHOLD = 1e-9

# Rows per CSV formatting block: bounds the cell strings held at once.
_CSV_BLOCK_ROWS = 256

# A fit table's OAM values: of either sign, with 2*l exact as protocol.OAM_L's.
_TABLE_L = Range(-protocol.OAM_L.hi, protocol.OAM_L.hi, integer=True)


class _NegativeNumber:
    """Matches every token that ``float()`` parses and that starts with ``-``."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return token.startswith("-")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern covers only -12 and -1.5, so it would read
        # -1e-4 or -inf as an option string; no option here looks like a number
        self._negative_number_matcher = _NegativeNumber

    # argparse exits with code 2 on usage errors; route them through
    # ConfigError so usage problems land on exit code 1 instead.
    def error(self, message):
        raise ConfigError(message)


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


@dataclasses.dataclass
class _OutDir:
    """An output directory and the checksums of the artifacts this run wrote."""

    path: Path
    checksums: dict = dataclasses.field(default_factory=dict)


def _put(out: _OutDir, name: str, data: bytes) -> None:
    _atomic_write(out.path / name, data)
    out.checksums[name] = f"sha256:{sha256(data).hexdigest()}"


def _schema(name: str) -> dict:
    ref = resources.files("iqpe.schemas").joinpath(name)
    return json.loads(ref.read_text(encoding="utf-8"))


def _write_json(out: _OutDir, name: str, payload: dict, schema_name: str) -> None:
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise ContractViolation(f"{name} would hold a non-finite value") from None
    jsonschema.validate(payload, _schema(schema_name))
    _put(out, name, text.encode("ascii"))


def _write_csv(out: _OutDir, name: str, header: str, columns) -> None:
    """Each cell as ``%.17g``, at the cost of the distinct values of a block.

    The rows go ``_CSV_BLOCK_ROWS`` at a time.  In a block, a column with
    repeated values has each distinct value formatted once and its cells
    looked up; one whose values are all distinct is formatted by the row's
    single ``%`` operation.  Values are told apart by their bits, so -0.0
    and 0.0 stay ``-0`` and ``0``.  The lookup is a dict, not ``np.unique``,
    whose sort kernels would add their pages to every run's peak RSS.  Each
    block is joined into one bytes chunk, so only one block of cell strings
    is held at a time and the file is built without a text copy.
    """
    if not np.isfinite(np.asarray(columns, dtype=float)).all():
        raise ContractViolation(f"{name} would hold a non-finite value")
    chunks = [header.encode("ascii")]
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        fields, formats = [], []
        for column in columns:
            block = np.asarray(column[start : start + _CSV_BLOCK_ROWS], dtype=float)
            values = block.tolist()
            bits = block.view(np.int64).tolist()
            distinct = dict(zip(bits, values))
            if len(distinct) < len(values):
                text = {b: b"%.17g" % v for b, v in distinct.items()}
                fields.append(map(text.__getitem__, bits))
                formats.append(b"%s")
            else:
                fields.append(values)
                formats.append(b"%.17g")
        row = b",".join(formats)
        chunks.append(b"\n".join([row % cells for cells in zip(*fields)]))
    chunks.append(b"")  # the trailing newline
    _put(out, name, b"\n".join(chunks))


def _write_manifest(
    out: _OutDir,
    subcommand: str,
    config_path: Optional[str],
    seed: Optional[int],
    parameters: dict,
) -> None:
    """Run parameters plus the checksums of exactly the files this run wrote."""
    payload = {
        "subcommand": subcommand,
        "config_path": config_path,
        "seed": seed,
        "parameters": parameters,
        "output_dir": str(out.path),
        "artifact_checksums": out.checksums,
    }
    _write_json(out, "manifest.json", payload, "manifest.v1.json")


def _prepare_out(raw: str) -> _OutDir:
    out_dir = Path(raw)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {raw!r}: {exc}") from None
    return _OutDir(out_dir)


def _cmd_qfi_map(args) -> None:
    out_dir = _prepare_out(args.out)
    if args.scenario == "birefringence":
        if args.order_n is not None:
            raise ConfigError("--order-n applies only to the rotation scenario")
        records = scenarios.birefringence_qfi_map(args.resolution)
    else:
        if args.order_n is None:
            raise ConfigError("--order-n is required for the rotation scenario")
        records = scenarios.rotation_qfi_map(args.order_n, args.resolution)
    names = records.dtype.names
    _write_csv(out_dir, "map.csv", ",".join(names), [records[name] for name in names])
    sqpe, iqpe_vals = records["qfi_sqpe"], records["qfi_iqpe"]
    dead = records[sqpe < DEAD_ZONE_THRESHOLD]
    summary = {
        "scenario": args.scenario,
        "order_n": args.order_n,
        "resolution": args.resolution,
        "qfi_sqpe_min": float(sqpe.min()),
        "qfi_sqpe_max": float(sqpe.max()),
        "qfi_iqpe_min": float(iqpe_vals.min()),
        "qfi_iqpe_max": float(iqpe_vals.max()),
        "dead_zone": {
            "threshold": DEAD_ZONE_THRESHOLD,
            "count": len(dead),
            "points": [{"theta": t, "phi": p} for t, p in dead[["theta", "phi"]].tolist()],
        },
    }
    _write_json(out_dir, "summary.json", summary, "qfi_map_summary.v1.json")
    _write_manifest(
        out_dir,
        "qfi-map",
        None,
        None,
        {"scenario": args.scenario, "order_n": args.order_n, "resolution": args.resolution},
    )


def _cmd_kerr(args) -> None:
    out_dir = _prepare_out(args.out)
    qfi_sqpe, qfi_iqpe = scenarios.kerr_qfi(args.nbar)
    payload = {
        "nbar": args.nbar,
        "truncation": scenarios.kerr_truncation(args.nbar),
        "qfi_sqpe": qfi_sqpe,
        "qfi_iqpe": qfi_iqpe,
    }
    _write_json(out_dir, "kerr.json", payload, "kerr.v1.json")
    _write_manifest(out_dir, "kerr", None, None, {"nbar": args.nbar})


def _cmd_rotation_sim(args) -> None:
    out_dir = _prepare_out(args.out)
    proto = protocol.RotationProtocol(args.l, math.radians(args.delta_phi_deg))
    alpha_true = math.radians(args.alpha_deg)
    refusal = protocol.angle_refusal(proto, alpha_true, args.nu, args.trials, degrees=True)
    if refusal is not None:
        raise ConfigError(f"--alpha-deg {args.alpha_deg} {refusal}")
    mean, stddev = protocol.monte_carlo_precision(
        proto, alpha_true, args.nu, args.trials, args.seed
    )
    crb = protocol.crb_stddev(proto, args.nu)
    payload = {
        "l": args.l,
        "alpha_true_rad": alpha_true,
        "delta_phi_rad": proto.delta_phi,
        "nu": args.nu,
        "trials": args.trials,
        "seed": args.seed,
        "mean_rad": mean,
        "empirical_stddev": stddev,
        "crb": crb,
        "ratio": stddev / crb,
    }
    _write_json(out_dir, "rotation_sim.json", payload, "rotation_sim.v1.json")
    _write_manifest(
        out_dir,
        "rotation-sim",
        None,
        args.seed,
        {
            "l": args.l,
            "alpha_deg": args.alpha_deg,
            "delta_phi_deg": args.delta_phi_deg,
            "nu": args.nu,
            "trials": args.trials,
        },
    )


def _experiment_artifacts(out_dir: _OutDir, run: emulator.ChannelRun) -> None:
    t = run.record.times()
    _write_csv(
        out_dir, f"record_l{run.l}.csv", "t,ch1,ch2", (t, run.record.ch1, run.record.ch2)
    )
    _write_csv(out_dir, f"demod_l{run.l}.csv", "t,phi,alpha", (t, run.phi, run.alpha))


def _cmd_experiment(args) -> None:
    out_dir = _prepare_out(args.out)
    cfg = emulator.parse_run_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if cfg.mode == "fit":
        result = emulator.run_fit_pipeline(cfg)
        for run in result.runs:
            _experiment_artifacts(out_dir, run)
        summary = {
            "mode": "fit",
            "phi_means": [[l, phi] for l, phi in result.phi_means],
            "fit": {
                "alpha_hat_rad": result.fit.alpha_hat,
                "delta_phi_hat_rad": result.fit.delta_phi_hat,
                "r_square": result.fit.r_square,
            },
        }
        _write_json(out_dir, "summary.json", summary, "experiment_fit_summary.v1.json")
    else:
        result = emulator.run_spectrum_pipeline(cfg)
        _experiment_artifacts(out_dir, result.run)
        _write_csv(
            out_dir,
            "spectrum.csv",
            "f_hz,amp_rad",
            (result.spectrum.frequencies, result.spectrum.amplitudes),
        )
        summary = {
            "mode": "spectrum",
            "l": result.run.l,
            "signal_peak_hz": result.spectrum.signal_peak[0],
            "signal_peak_rad": result.spectrum.signal_peak[1],
            "noise_floor_rad": result.spectrum.noise_floor,
        }
        _write_json(
            out_dir, "summary.json", summary, "experiment_spectrum_summary.v1.json"
        )
    _write_manifest(
        out_dir, "experiment", str(args.config), cfg.seed, {"mode": cfg.mode}
    )


def _cmd_fit(args) -> None:
    out_dir = _prepare_out(args.out)
    measurements = []
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "l,phi_rad":
                raise ConfigError(
                    f"{args.input}:1: expected header 'l,phi_rad', got {header!r}"
                )
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise ConfigError(f"{args.input}:{lineno}: expected 'l,phi_rad'")
                try:
                    measurements.append((_TABLE_L.parse(parts[0]), FINITE.parse(parts[1])))
                except ValueError as exc:
                    raise ConfigError(f"{args.input}:{lineno}: bad numeric value: {exc}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {args.input!r}: {exc}") from None
    report = emulator.fit_oam_series(measurements)
    payload = {
        "alpha_hat_rad": report.alpha_hat,
        "delta_phi_hat_rad": report.delta_phi_hat,
        "r_square": report.r_square,
        "n_points": len(measurements),
    }
    _write_json(out_dir, "fit.json", payload, "fit.v1.json")
    _write_manifest(out_dir, "fit", str(args.input), None, {"n_points": len(measurements)})


def _flag(rule: Range, degrees: bool = False):
    """``rule.parse`` as an argparse type; argparse would drop a ValueError's text."""

    def checked(raw: str):
        try:
            return rule.parse(raw, degrees)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return checked


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="iqpe", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_map = sub.add_parser("qfi-map", help="QFI maps over a sphere grid")
    p_map.add_argument("--scenario", required=True, choices=["birefringence", "rotation"])
    p_map.add_argument("--order-n", type=_flag(scenarios.LADDER_ORDER), default=None,
                       help="mode order (rotation)")
    p_map.add_argument("--resolution", type=_flag(scenarios.RESOLUTION), default=32)
    p_map.add_argument("--out", required=True)
    p_map.set_defaults(func=_cmd_qfi_map)

    p_kerr = sub.add_parser("kerr", help="coherent-probe phase-shift QFI pair")
    p_kerr.add_argument("--nbar", required=True, type=_flag(scenarios.NBAR))
    p_kerr.add_argument("--out", required=True)
    p_kerr.set_defaults(func=_cmd_kerr)

    p_sim = sub.add_parser("rotation-sim", help="Monte-Carlo estimator precision")
    p_sim.add_argument("--l", type=_flag(protocol.OAM_L), required=True, help="OAM value")
    p_sim.add_argument("--alpha-deg", type=_flag(FINITE, degrees=True), required=True,
                       help="true angle, degrees")
    p_sim.add_argument("--delta-phi-deg", type=_flag(protocol.DELTA_PHI, degrees=True),
                       default=0.0)
    p_sim.add_argument("--nu", default=10**6, help="photons per trial", type=_flag(protocol.NU))
    p_sim.add_argument("--trials", type=_flag(protocol.TRIALS), default=10_000)
    p_sim.add_argument("--seed", type=_flag(protocol.SEED), required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_rotation_sim)

    p_exp = sub.add_parser("experiment", help="full detector pipeline from a config file")
    p_exp.add_argument("--config", required=True)
    p_exp.add_argument("--seed", type=_flag(protocol.SEED), default=None,
                       help="override the config seed")
    p_exp.add_argument("--out", required=True)
    p_exp.set_defaults(func=_cmd_experiment)

    p_fit = sub.add_parser("fit", help="linear phase-vs-OAM fit of a measurement CSV")
    p_fit.add_argument("--input", required=True, help="CSV with header l,phi_rad")
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=_cmd_fit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ContractViolation as exc:
        print(f"numeric contract violation: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> int:
    """``main()`` in a process of its own: the console script and ``python -m``.

    ``gc.freeze()`` moves everything the imports allocated (numpy, jsonschema
    and this package) to the permanent generation first, so neither the
    full collections during the command nor the ones at interpreter exit
    walk that heap again.  Callers of ``main()`` in a longer-lived process
    keep their collector as it was.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
