"""Benchmark of the iqpe command-line toolkit, run the way it is used.

    python3 bench/run.py --workload maps --seed 1 --seconds 35 --trace 0

Every command of a workload runs as a fresh ``python -m iqpe.cli`` process
against this checkout's ``src/``, one at a time (a closed loop with one
client).  With ``--trace 0`` the workload's commands are repeated in passes
for ``--seconds`` seconds and the end-to-end metrics are printed; with
``--trace 1`` one untraced and one traced pass give the per-layer metrics.
Each command's outputs are checked after it exits, outside its timing.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (machine, every
command, failures with their reasons, artifact digests) is written to
``.bench_work/<workload>/result-trace<0|1>.json``.

README.md next to this file describes the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ".bench_work"

# Import-and-exit samples per run for setup_s, taken before the first pass
# and again after the last; setup_s is the median of all of them.
SETUP_SAMPLES_EACH_SIDE = 5

# BLAS threads of every child.  One: with two, OpenBLAS's spinning worker
# costs each command 0.3 to 0.5 s of CPU even when no BLAS call runs, and a
# command's wall time then depends on whether the host schedules both vCPUs
# at once, which varies from minute to minute on a shared machine.
BLAS_THREADS = "1"

PROBE = """
import importlib.metadata, json, sys
import numpy, scipy
import iqpe.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "iqpe_cli": iqpe.cli.__file__,
    "python": sys.version.split()[0],
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
    "jsonschema": importlib.metadata.version("jsonschema"),
    "blas": blas.get("name"),
    "blas_version": blas.get("version"),
}))
"""


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


@dataclass
class Child:
    """Resource use of one finished child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: Optional[int]  # None when stopped at the time limit
    stderr_tail: str


@dataclass
class Outcome:
    cid: str
    traced: bool
    child: Child
    reason: Optional[str]
    digests: dict[str, str]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def run_child(argv: list[str], env: dict[str, str], limit_s: float, stderr_path: Path) -> Child:
    """Run ``argv`` from the checkout root; stop it at ``limit_s`` seconds."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], limit_s)
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        exit_code=proc.returncode if exited else None,
        stderr_tail=lines[-1] if lines else "",
    )


def probe(env: dict[str, str]) -> dict:
    """Versions seen by the children; aborts unless iqpe is this checkout's."""
    proc = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"cannot import iqpe.cli from {ROOT / 'src'}: {proc.stderr.strip()}")
    info = json.loads(proc.stdout)
    expected = ROOT / "src" / "iqpe" / "cli.py"
    if Path(info["iqpe_cli"]).resolve() != expected.resolve():
        raise BenchError(f"iqpe resolves to {info['iqpe_cli']}, not {expected}")
    return info


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine_record(versions: dict, seed: int) -> dict:
    cpu_model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), "")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level, kind = _read(base + "level"), _read(base + "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(base + "size")
    mem_kb = next((int(line.split()[1]) for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "ram_mb": mem_kb // 1024,
        **{k: v for k, v in versions.items() if k != "iqpe_cli"},
        "blas_threads": int(BLAS_THREADS),
        "git_commit": commit,
        "seed": seed,
        "src_lines": src_lines,
    }


def setup_sample(env: dict[str, str], work: Path) -> float:
    child = run_child([sys.executable, "-c", "import iqpe.cli"], env, 60.0, work / "stderr.txt")
    if child.exit_code != 0:
        raise BenchError(f"import iqpe.cli failed: {child.stderr_tail}")
    return child.wall_s


def failure_reason(cmd, child: Child, limit_s: float) -> Optional[str]:
    """Why the command failed, or None; its outputs are checked after it exited."""
    if child.exit_code is None:
        return f"still running after {limit_s:g} s; stopped"
    if child.exit_code != 0:
        return f"exit {child.exit_code}: {child.stderr_tail}"
    return cmd.check(ROOT / cmd.out)


def run_pass(cmds, env, limit_s, work: Path, traced: bool, deadline: Optional[float]) -> list[Outcome]:
    """Run each command once, in order, from an empty output tree.

    With a ``deadline`` no command starts after it; the first pass of a run
    has none, so every command runs at least once.
    """
    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "out").mkdir()
    outcomes = []
    for cmd in cmds:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if traced:
            spans = work / "spans" / f"{cmd.cid}.json"
            spans.unlink(missing_ok=True)
            argv = [sys.executable, str(ROOT / "bench" / "tracer.py"), str(spans), cmd.cid, "--"]
        else:
            argv = [sys.executable, "-m", "iqpe.cli"]
        child = run_child(argv + cmd.full_argv(), env, limit_s, work / "stderr.txt")
        reason = failure_reason(cmd, child, limit_s)
        out = ROOT / cmd.out
        digests = {name: workloads.sha256_file(out / name)
                   for name in [*cmd.expected, "manifest.json"] if (out / name).is_file()}
        outcomes.append(Outcome(cmd.cid, traced, child, reason, digests))
    return outcomes


def charged_wall(outcome: Outcome, limit_s: float) -> float:
    return limit_s if outcome.reason else outcome.child.wall_s


def end_to_end(outcomes: list[Outcome], setup: list[float], limit_s: float) -> dict:
    by_cmd: dict[str, list[Outcome]] = {}
    for o in outcomes:
        by_cmd.setdefault(o.cid, []).append(o)
    return {
        "wall_s": sum(statistics.median(charged_wall(o, limit_s) for o in runs)
                      for runs in by_cmd.values()),
        "setup_s": statistics.median(setup),
        "cpu_s": sum(statistics.median(o.child.cpu_s for o in runs) for runs in by_cmd.values()),
        "peak_rss_mb": max(o.child.rss_mb for o in outcomes),
    }


def per_layer(cmds, work: Path, untraced: list[Outcome], traced: list[Outcome],
              limit_s: float) -> dict:
    """Sums over the traced pass; a layer that did not run reads 0."""
    totals: dict[str, float] = {}
    for cmd in cmds:
        path = work / "spans" / f"{cmd.cid}.json"
        if not path.is_file():  # the traced command failed, so the run is not correct
            continue
        for key, value in tracer.summarize(path).items():
            totals[key] = totals.get(key, 0) + value
    totals["trace_overhead_s"] = (sum(charged_wall(o, limit_s) for o in traced)
                                  - sum(charged_wall(o, limit_s) for o in untraced))
    return {name: totals.get(name, 0) for name, _, _ in tracer.metric_names()}


def consistent(outcomes: list[Outcome]) -> list[str]:
    """Commands whose outcome or artifacts differ between repeats of the run."""
    first: dict[str, Outcome] = {}
    differing = []
    for o in outcomes:
        seen = first.setdefault(o.cid, o)
        if (seen.reason is None) != (o.reason is None) or (o.reason is None and seen.digests != o.digests):
            differing.append(o.cid)
    return sorted(set(differing))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.TIME_LIMIT_S))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "iqpe" / "cli.py").is_file():
        raise BenchError(f"no iqpe sources under {ROOT / 'src'}")
    limit_s = workloads.TIME_LIMIT_S[args.workload]
    work_rel = f"{WORK}/{args.workload}"
    work = ROOT / work_rel
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    (work / "spans").mkdir()
    env = child_env()
    record = machine_record(probe(env), args.seed)
    cmds = workloads.generate(args.workload, args.seed, work_rel, ROOT)
    for cmd in cmds:
        for path, text in cmd.inputs.items():
            (ROOT / path).write_text(text, encoding="ascii")

    setup = [setup_sample(env, work) for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    start = time.perf_counter()
    if args.trace:
        untraced = run_pass(cmds, env, limit_s, work, traced=False, deadline=None)
        traced = run_pass(cmds, env, limit_s, work, traced=True, deadline=None)
        outcomes = untraced + traced
        passes = 2
    else:
        deadline = start + args.seconds
        outcomes = run_pass(cmds, env, limit_s, work, traced=False, deadline=None)
        passes = 1
        while time.perf_counter() < deadline:
            outcomes += run_pass(cmds, env, limit_s, work, traced=False, deadline=deadline)
            passes += 1
    measured_s = time.perf_counter() - start
    setup += [setup_sample(env, work) for _ in range(SETUP_SAMPLES_EACH_SIDE)]

    if args.trace:
        metrics = per_layer(cmds, work, untraced, traced, limit_s)
        units = {name: unit for name, unit, _ in tracer.metric_names()}
    else:
        metrics = end_to_end(outcomes, setup, limit_s)
        units = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
    differing = consistent(outcomes)
    failures = [{"command": o.cid, "traced": o.traced, "reason": o.reason}
                for o in outcomes if o.reason]
    result = {
        # Every command of every workload passes at the seed commit, so any
        # failed command, or artifacts that differ between repeats, is wrong.
        "correct": not failures and not differing,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    details = {
        **result,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "measured_s": measured_s,
        "time_limit_s": limit_s,
        "setup_samples_s": setup,
        "machine": record,
        "inconsistent_commands": differing,
        "failures": failures,
        "commands": [
            {
                "command": cmd.cid,
                "argv": ["iqpe", *cmd.full_argv()],
                "runs": [
                    {"traced": o.traced, "wall_s": o.child.wall_s, "cpu_s": o.child.cpu_s,
                     "rss_mb": o.child.rss_mb, "exit_code": o.child.exit_code, "failure": o.reason}
                    for o in outcomes if o.cid == cmd.cid
                ],
                "artifact_sha256": next(o.digests for o in outcomes if o.cid == cmd.cid),
            }
            for cmd in cmds
        ],
    }
    details_path = work / f"result-trace{args.trace}.json"
    details_path.write_text(json.dumps(details, indent=1) + "\n", encoding="utf-8")
    for f in failures:
        print(f"failed: {f['command']}{' (traced)' if f['traced'] else ''}: {f['reason']}")
    print(f"details: {details_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
