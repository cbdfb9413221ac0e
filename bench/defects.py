"""Reproduce the defects known at the seed commit, outside the timed workloads.

    python3 bench/defects.py

Each case runs fresh ``iqpe`` commands the way run.py does, with the same
output checks.  A defect whose commands fail is printed as present, each
failure with its reason; one whose commands all pass is printed as fixed.
Nothing here is timed or gated: the timed workloads keep to inputs that pass
at the seed commit, and this script keeps the defects in view until they are
fixed.  The last line of standard output is one JSON object with, per
defect, the failed and attempted command counts and the reasons.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

WORK = f"{run.WORK}/defects"

# Orders 25, 50, ..., 300 of the rotation map, on the grids the maps workload
# once used.  Past N=25 whether a map trips the variance clamp depends on the
# rounding at the grid's poles; at the seed commit most of these maps exit 2.
LADDER = tuple(range(25, 301, 25))


def cases() -> dict[str, tuple[str, list[workloads.Command]]]:
    root = run.ROOT
    ladder = [workloads.map_command(f"n{n}", WORK, "rotation", n, 4 if n <= 100 else 2)
              for n in LADDER]
    # The shipped six-l fit with its largest phase at 2 rad, past the fold at pi/2.
    fold = [workloads.fit_config_command("past_fold", WORK, [1, 4, 7, 10, 20, 30], 6e-3, 2.0)]
    # Two spectrum runs into one directory, as a user scanning l would.
    shared = f"{WORK}/out/scan"
    reuse = [workloads.scan_command("scan_l10", WORK, root, 10, 1, shared),
             workloads.scan_command("scan_l20", WORK, root, 20, 2, shared)]
    return {
        "2(a)": ("variance <V^2>-<V>^2 cancels at the poles and trips the clamp", ladder),
        "2(b)": ("fit-mode phases past pi/2 fold back through arcsin", fold),
        "2(c)": ("a manifest lists every file in a reused output directory", reuse),
    }


def main() -> int:
    env = run.child_env()
    run.probe(env)
    work = run.ROOT / WORK
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    report = {}
    for defect, (what, cmds) in cases().items():
        for cmd in cmds:
            for path, text in cmd.inputs.items():
                (run.ROOT / path).write_text(text, encoding="ascii")
        # One pass, like run.py's, but the reused directory must survive
        # between its two commands, so the tree is emptied per defect only.
        shutil.rmtree(work / "out", ignore_errors=True)
        (work / "out").mkdir()
        outcomes = []
        for cmd in cmds:
            child = run.run_child([sys.executable, "-m", "iqpe.cli", *cmd.full_argv()], env,
                                  60.0, work / "stderr.txt")
            outcomes.append((cmd.cid, run.failure_reason(cmd, child, 60.0)))
        failed = [(cid, reason) for cid, reason in outcomes if reason]
        print(f"{defect} {'present' if failed else 'fixed'}: {what} "
              f"({len(failed)} of {len(cmds)} commands fail)")
        for cid, reason in failed:
            print(f"  {cid}: {reason}")
        report[defect] = {"failed": len(failed), "attempted": len(cmds),
                          "reasons": {cid: reason for cid, reason in failed}}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except run.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)
