"""Seeded workloads for the iqpe CLI benchmark.

A workload turns a seed into a list of ``Command``s: the argv of one
``iqpe`` invocation, the files that invocation must write, and a check of
those files.  Input files (run configs, phase tables) are written once per
run, before anything is timed.  The program only ever sees the generated
argv and input files.

Why each workload looks the way it does is written up in README.md next to
this file.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

# Per-command time limit of each workload, seconds.  A command still running
# at the limit is stopped, and every failed command is charged the limit in
# wall_s.  Each is at least five times the slowest passing command measured on
# a 2-core Xeon, so a loaded machine does not turn a slow pass into a failure.
TIME_LIMIT_S = {"maps": 10.0, "shots": 20.0, "detector": 10.0}

# One rotation-map order from each band of 50 up to MAX_LADDER_ORDER = 300.
# From N=26 up, whether a map trips the variance clamp at the seed commit
# (defect 2(a), shown by defects.py) is a fixed, roughly coin-flip function
# of its order and grid.  These orders pass at resolutions 2 and 4 with 1
# and 2 BLAS threads and with the SkylakeX, Haswell, Zen and Sandybridge
# kernels of OpenBLAS.
# Fixed rather than drawn, so the seed moves neither the work nor, until
# 2(a) is fixed, the outcome.
MAP_LADDER = (48, 99, 150, 198, 249, 294)
# Drawn orders stay at or below this one: at the seed commit orders 0..25
# pass at every resolution from 2 to 48.
MAP_LOW_ORDER_MAX = 25

# Calibrated demodulated-angle floor times OAM value, rad, in the shipped
# spectrum geometry; measured 1.79e-6 to 2.05e-6 over 400 (l, seed) draws.
FLOOR_TIMES_L_RAD = 1.92e-6
FLOOR_RTOL = 0.15

# Spectrum-mode scan runs, with l from this many equal strata of 1..150.
SCAN_RUNS = 2

# The fit-mode configs stratify the largest phase 2*l_max*alpha + delta_phi
# over [0, FIT_TOP_PHASE_RAD) in this many equal strata.  The top stays well
# below the arcsin fold at pi/2, past which the seed commit folds the phase
# back and returns a wrong angle (defect 2(b), shown by defects.py instead).
FIT_CONFIGS = 2
FIT_TOP_PHASE_RAD = 1.4

# ceil(nbar) of the drawn Kerr runs: the middles of three equal strata of
# 1..200.
KERR_CEILS = (34, 100, 167)

SHIPPED_FIT = "configs/static_fit_six_l.cfg"
SHIPPED_SPECTRUM = "configs/spectrum_l150.cfg"

Check = Callable[[Path], Optional[str]]


@dataclass
class Command:
    """One CLI invocation: ``iqpe <argv> --out <out>``."""

    cid: str
    argv: list[str]
    out: str
    expected: list[str]
    check: Check
    inputs: dict[str, str] = field(default_factory=dict)

    def full_argv(self) -> list[str]:
        return [*self.argv, "--out", self.out]


class CheckFailed(Exception):
    """An output check found a wrong or missing artifact."""


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from None


def _read_csv(path: Path, header: list[str]) -> list[list[float]]:
    try:
        with open(path, newline="", encoding="ascii") as fh:
            reader = csv.reader(fh)
            got = next(reader, None)
            if got != header:
                raise CheckFailed(f"{path.name}: header {got} != {header}")
            return [[float(v) for v in row] for row in reader]
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"cannot read {path.name}: {exc}") from None


def _close(got: float, want: float, rtol: float, atol: float, what: str) -> None:
    if not abs(got - want) <= rtol * abs(want) + atol:
        raise CheckFailed(f"{what}: got {got!r}, want {want!r} (rtol {rtol}, atol {atol})")


def _check_manifest(out: Path, subcommand: str, expected: list[str]) -> None:
    manifest = _load_json(out / "manifest.json")
    if manifest.get("subcommand") != subcommand:
        raise CheckFailed(f"manifest subcommand {manifest.get('subcommand')!r}")
    listed = manifest.get("artifact_checksums", {})
    extra = sorted(set(listed) - set(expected))
    missing = sorted(set(expected) - set(listed))
    if extra or missing:
        raise CheckFailed(
            f"manifest lists files the command did not write {extra} "
            f"and misses files it wrote {missing}"
        )
    for name in expected:
        path = out / name
        if not path.is_file():
            raise CheckFailed(f"{name} listed in the manifest but not written")
        if listed[name] != f"sha256:{sha256_file(path)}":
            raise CheckFailed(f"manifest checksum of {name} does not match the file")


def _checked(subcommand: str, expected: list[str], specific: Callable[[Path], None]) -> Check:
    def check(out: Path) -> Optional[str]:
        try:
            _check_manifest(out, subcommand, expected)
            specific(out)
        except CheckFailed as exc:
            return str(exc)
        return None

    return check


# --------------------------------------------------------------------- maps


def _map_check(scenario: str, order_n: Optional[int], resolution: int):
    def specific(out: Path) -> None:
        rows = _read_csv(out / "map.csv", ["theta", "phi", "qfi_sqpe", "qfi_iqpe"])
        if len(rows) != 2 * resolution * resolution:
            raise CheckFailed(f"map.csv has {len(rows)} rows, want {2 * resolution**2}")
        for k, (theta, phi, sqpe, iqpe) in enumerate(rows):
            i, j = divmod(k, 2 * resolution)
            _close(theta, math.pi * i / (resolution - 1), 0.0, 1e-12, f"row {k} theta")
            _close(phi, math.pi * j / resolution, 0.0, 1e-12, f"row {k} phi")
            if scenario == "rotation":
                n = float(order_n)
                want_s = 4.0 * n * math.sin(theta) ** 2
                want_i = 4.0 * n * n * math.cos(theta) ** 2 + want_s
            else:
                want_s = 4.0 - 4.0 * math.sin(theta) ** 2 * math.cos(phi) ** 2
                want_i = 4.0
            _close(sqpe, want_s, 1e-9, 1e-9, f"row {k} qfi_sqpe")
            _close(iqpe, want_i, 1e-9, 1e-9, f"row {k} qfi_iqpe")
        summary = _load_json(out / "summary.json")
        if (summary.get("scenario"), summary.get("order_n"), summary.get("resolution")) != (
            scenario,
            order_n,
            resolution,
        ):
            raise CheckFailed("summary.json does not echo the run parameters")
        for col, key in ((2, "qfi_sqpe"), (3, "qfi_iqpe")):
            values = [row[col] for row in rows]
            _close(summary[f"{key}_min"], min(values), 1e-12, 0.0, f"summary {key}_min")
            _close(summary[f"{key}_max"], max(values), 1e-12, 0.0, f"summary {key}_max")

    return _checked("qfi-map", ["map.csv", "summary.json"], specific)


def map_command(cid: str, work: str, scenario: str, order_n: Optional[int], res: int) -> Command:
    argv = ["qfi-map", "--scenario", scenario, "--resolution", str(res)]
    if order_n is not None:
        argv += ["--order-n", str(order_n)]
    return Command(
        cid, argv, f"{work}/out/{cid}", ["map.csv", "summary.json"],
        _map_check(scenario, order_n, res),
    )


def maps(rng: random.Random, work: str) -> list[Command]:
    """Rotation maps over the order range, the README's map, birefringence."""
    cmds = [
        map_command("readme", work, "rotation", 4, 32),
        # A narrow resolution band: the map's cost grows like res^2.
        map_command("biref", work, "birefringence", None, rng.randint(30, 34)),
    ]
    for k in range(2):
        order = rng.randint(0, MAP_LOW_ORDER_MAX)
        # Up to N=25 the per-point cost hardly depends on N, so the seed moves
        # the work only through the resolution; the band keeps that small.
        cmds.append(map_command(f"low{k}", work, "rotation", order, rng.randint(9, 11)))
    for order in MAP_LADDER:
        # Per-point cost grows like N^3; the coarsest grid keeps N > 100 cheap.
        res = 4 if order <= 100 else 2
        cmds.append(map_command(f"n{order}", work, "rotation", order, res))
    return cmds


# -------------------------------------------------------------------- shots


def _oam_stratum(rng: random.Random, k: int, strata: int) -> int:
    """An OAM value from the k-th of ``strata`` equal strata of 1..150."""
    return rng.randint(1 + 150 * k // strata, 150 * (k + 1) // strata)


def _sim_check(l: int, trials: int):
    def specific(out: Path) -> None:
        sim = _load_json(out / "rotation_sim.json")
        if (sim.get("l"), sim.get("trials")) != (l, trials):
            raise CheckFailed("rotation_sim.json does not echo l and trials")
        # Estimator mean within five standard errors of the truth; the
        # arcsin bias at nu = 1e6 is below 1e-3 standard errors.
        sem = sim["empirical_stddev"] / math.sqrt(trials)
        _close(sim["mean_rad"], sim["alpha_true_rad"], 0.0, 5.0 * sem + 1e-15, "mean_rad")
        # Sample standard deviation within five relative standard errors of
        # the Cramer-Rao limit, which the estimator attains to O(1/nu).
        _close(sim["ratio"], 1.0, 0.0, 5.0 * math.sqrt(0.5 / (trials - 1)) + 1e-3, "ratio")

    return _checked("rotation-sim", ["rotation_sim.json"], specific)


def _kerr_check(nbar: float):
    def specific(out: Path) -> None:
        kerr = _load_json(out / "kerr.json")
        _close(kerr["nbar"], nbar, 0.0, 0.0, "nbar")
        _close(kerr["qfi_sqpe"], 4.0 * nbar, 1e-4, 0.0, "qfi_sqpe")
        _close(kerr["qfi_iqpe"], 4.0 * nbar * nbar + 4.0 * nbar, 1e-4, 0.0, "qfi_iqpe")

    return _checked("kerr", ["kerr.json"], specific)


def shots(rng: random.Random, work: str) -> list[Command]:
    """Monte Carlo rotation runs and Kerr QFI pairs."""
    cmds = []
    # Trial counts are a permutation of a fixed set, so the seed moves the
    # split but not the total work.
    trial_counts = [10_000, 15_000, 20_000, 25_000]
    rng.shuffle(trial_counts)
    for k, trials in enumerate(trial_counts):
        l = _oam_stratum(rng, k, len(trial_counts))
        phase = rng.uniform(-0.5, 0.5)  # 2*l*alpha, well inside the arcsin's linear regime
        alpha_deg = math.degrees(phase / (2.0 * l))
        argv = [
            "rotation-sim", "--l", str(l), "--alpha-deg", repr(alpha_deg),
            "--trials", str(trials), "--seed", str(rng.randrange(2**31)),
        ]
        cmds.append(Command(f"sim{k}", argv, f"{work}/out/sim{k}", ["rotation_sim.json"],
                            _sim_check(l, trials)))
    # Three nbar values spread over (0, 200] plus the top of the range, so
    # peak RSS always measures the largest operator the workload allows.  The
    # Fock truncation is 16*ceil(nbar) + 32, so drawing only the fraction
    # below each of KERR_CEILS keeps every operator's size, and with it the
    # work, the same for every seed.
    nbars = [round(rng.uniform(c - 0.99, c), 2) for c in KERR_CEILS] + [200.0]
    for k, nbar in enumerate(nbars):
        cmds.append(Command(f"kerr{k}", ["kerr", "--nbar", repr(nbar)], f"{work}/out/kerr{k}",
                            ["kerr.json"], _kerr_check(nbar)))
    return cmds


# ----------------------------------------------------------------- detector


def _read_config(text: str) -> dict[str, str]:
    values = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


def _config_text(values: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def _spectrum_check(l: int, expected: list[str]):
    def specific(out: Path) -> None:
        summary = _load_json(out / "summary.json")
        if (summary.get("mode"), summary.get("l")) != ("spectrum", l):
            raise CheckFailed("summary.json does not echo mode and l")
        _close(summary["noise_floor_rad"] * l, FLOOR_TIMES_L_RAD, FLOOR_RTOL, 0.0,
               "noise floor times l")

    return _checked("experiment", expected, specific)


def _spectrum_files(l: int) -> list[str]:
    return [f"record_l{l}.csv", f"demod_l{l}.csv", "spectrum.csv", "summary.json"]


def _fit_experiment_check(alpha: float, expected: list[str]):
    def specific(out: Path) -> None:
        summary = _load_json(out / "summary.json")
        # Noiseless runs: the line fit recovers the synthesis truth exactly.
        _close(summary["fit"]["alpha_hat_rad"], alpha, 1e-6, 1e-12, "alpha_hat_rad")

    return _checked("experiment", expected, specific)


def _fit_files(l_values: list[int]) -> list[str]:
    return [f"{kind}_l{l}.csv" for l in l_values for kind in ("record", "demod")] + ["summary.json"]


def _fit_table_check(alpha: float, n_points: int):
    def specific(out: Path) -> None:
        fit = _load_json(out / "fit.json")
        if fit.get("n_points") != n_points:
            raise CheckFailed(f"fit.json n_points {fit.get('n_points')} != {n_points}")
        _close(fit["alpha_hat_rad"], alpha, 1e-9, 1e-15, "alpha_hat_rad")

    return _checked("fit", ["fit.json"], specific)


def fit_config_command(cid: str, work: str, l_values: list[int], delta_phi: float,
                       top_phase: float) -> Command:
    """A noiseless fit-mode run whose largest phase 2*l_max*alpha + delta_phi is ``top_phase``."""
    alpha = (top_phase - delta_phi) / (2.0 * l_values[-1])
    cfg = f"{work}/inputs/{cid}.cfg"
    text = _config_text({
        "mode": "fit",
        "l": ", ".join(map(str, l_values)),
        "power_w": "1e-3",
        "delta_phi_rad": repr(delta_phi),
        "signal_freq_hz": "0",
        "signal_amp_rad": repr(alpha),
        "sample_rate": "60e3",
        "duration_s": "0.1",
    })
    files = _fit_files(l_values)
    return Command(cid, ["experiment", "--config", cfg], f"{work}/out/{cid}",
                   files, _fit_experiment_check(alpha, files), {cfg: text})


def scan_command(cid: str, work: str, root: Path, l: int, seed: int, out: str) -> Command:
    """A spectrum-mode run at the shipped calibrated geometry and OAM value ``l``."""
    spectrum = _read_config((root / SHIPPED_SPECTRUM).read_text(encoding="utf-8"))
    cfg = f"{work}/inputs/{cid}.cfg"
    text = _config_text({**spectrum, "l": str(l), "seed": str(seed)})
    files = _spectrum_files(l)
    return Command(cid, ["experiment", "--config", cfg], out, files,
                   _spectrum_check(l, files), {cfg: text})


def detector(rng: random.Random, work: str, root: Path) -> list[Command]:
    """OAM spectrum scan, fit configs, shipped configs, a fit table."""
    cmds = []
    for k in range(SCAN_RUNS):
        l = _oam_stratum(rng, k, SCAN_RUNS)
        # Each scan run has a directory of its own: at the seed commit a
        # manifest lists every file in its directory (defect 2(c)).
        cmds.append(scan_command(f"scan{k}", work, root, l, rng.randrange(2**31),
                                 f"{work}/out/scan{k}"))
    for k in range(FIT_CONFIGS):
        l_values = sorted(rng.sample(range(1, 41), 6))
        delta_phi = rng.uniform(-0.02, 0.02)
        top_phase = rng.uniform(k, k + 1) * FIT_TOP_PHASE_RAD / FIT_CONFIGS
        cmds.append(fit_config_command(f"fit{k}", work, l_values, delta_phi, top_phase))
    shipped_fit = _read_config((root / SHIPPED_FIT).read_text(encoding="utf-8"))
    fit_l = [int(v) for v in shipped_fit["l"].split(",")]
    files = _fit_files(fit_l)
    cmds.append(Command("shipped_fit", ["experiment", "--config", SHIPPED_FIT],
                        f"{work}/out/shipped_fit", files,
                        _fit_experiment_check(float(shipped_fit["signal_amp_rad"]), files)))
    l = int(_read_config((root / SHIPPED_SPECTRUM).read_text(encoding="utf-8"))["l"])
    files = _spectrum_files(l)
    cmds.append(Command("shipped_spectrum", ["experiment", "--config", SHIPPED_SPECTRUM],
                        f"{work}/out/shipped_spectrum", files, _spectrum_check(l, files)))
    l_values = sorted(rng.sample(range(1, 151), 8))
    alpha = rng.uniform(-1e-3, 1e-3)
    delta_phi = rng.uniform(-0.1, 0.1)
    table = "l,phi_rad\n" + "".join(f"{l},{2.0 * l * alpha + delta_phi!r}\n" for l in l_values)
    path = f"{work}/inputs/phases.csv"
    cmds.append(Command("table_fit", ["fit", "--input", path], f"{work}/out/table_fit",
                        ["fit.json"], _fit_table_check(alpha, len(l_values)), {path: table}))
    return cmds


def generate(name: str, seed: int, work: str, root: Path) -> list[Command]:
    """The workload's commands for ``seed``; ``work`` is relative to ``root``."""
    rng = random.Random(seed)
    if name == "maps":
        return maps(rng, work)
    if name == "shots":
        return shots(rng, work)
    return detector(rng, work, root)
