"""Traced run of one iqpe command, and the per-layer summary of its spans.

    python bench/tracer.py SPANS.json COMMAND_ID -- <iqpe arguments>

imports ``iqpe.cli``, wraps the public entry points of every layer (and the
CLI's artifact writers), runs ``iqpe.cli.main`` on the arguments and, when
it returns, writes the recorded spans to SPANS.json.  The exit code is
``main``'s.  Spans live in memory until then, so tracing adds no I/O to the
command itself.

A wrapper replaces its function in every ``iqpe`` module that bound the
name (``from .statekit import variance`` gives ``qfi`` its own reference),
and on the owning class for ``__post_init__`` validators.  A target that no
longer exists stops the command with exit code 1 before ``main`` runs, so a
renamed layer fails the traced run instead of reading as a layer that costs
nothing; update ``TARGETS`` alongside the rename.
"""

from __future__ import annotations

import json
import sys
import time

# (module, attribute path, span name).  Several targets may share a span name.
TARGETS = [
    ("iqpe.cli", "_write_csv", "cli.write_csv"),
    ("iqpe.cli", "_write_json", "cli.write_json"),
    ("jsonschema", "validate", "cli.schema_validate"),
    ("iqpe.cli", "_write_manifest", "cli.manifest"),
    ("iqpe.statekit", "herm_eig", "statekit.herm_eig"),
    ("iqpe.statekit", "expm_herm_generator", "statekit.expm_herm_generator"),
    ("iqpe.statekit", "apply_unitary", "statekit.apply_unitary"),
    ("iqpe.statekit", "variance", "statekit.variance"),
    ("iqpe.statekit", "PureState.__post_init__", "statekit.validate"),
    ("iqpe.statekit", "HermitianOperator.__post_init__", "statekit.validate"),
    ("iqpe.statekit", "UnitaryMatrix.__post_init__", "statekit.validate"),
    ("iqpe.qfi", "sqpe_qfi", "qfi.sqpe_qfi"),
    ("iqpe.qfi", "iqpe_qfi", "qfi.iqpe_qfi"),
    ("iqpe.qfi", "ParameterizedDynamics.__post_init__", "qfi.dynamics"),
    ("iqpe.scenarios", "rotation_qfi_map", "scenarios.rotation_qfi_map"),
    ("iqpe.scenarios", "birefringence_qfi_map", "scenarios.birefringence_qfi_map"),
    ("iqpe.scenarios", "hlg_state", "scenarios.hlg_state"),
    ("iqpe.scenarios", "modal_ladder", "scenarios.modal_ladder"),
    ("iqpe.scenarios", "kerr_qfi", "scenarios.kerr_qfi"),
    ("iqpe.scenarios", "_cross_check", "scenarios.cross_check"),
    ("iqpe.protocol", "monte_carlo_precision", "protocol.monte_carlo_precision"),
    ("iqpe.protocol", "trial_rng", "protocol.trial_rng"),
    ("iqpe.protocol", "estimate_alpha", "protocol.estimate_alpha"),
    ("iqpe.protocol", "projection_probabilities", "protocol.projection_probabilities"),
    ("iqpe.emulator", "parse_run_config", "emulator.parse_run_config"),
    ("iqpe.emulator", "synthesize_record", "emulator.synthesize_record"),
    ("iqpe.emulator", "demodulate_phase", "emulator.demodulate_phase"),
    ("iqpe.emulator", "amplitude_spectrum", "emulator.amplitude_spectrum"),
    ("iqpe.emulator", "fit_oam_series", "emulator.fit_oam_series"),
]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name in TARGETS))

# The artifact writers' self time goes by the names the benchmark fixed for them.
SELF_METRIC = {
    "cli.write_csv": "cli.write_csv_s",
    "cli.write_json": "cli.write_json_s",
    "cli.schema_validate": "cli.schema_validate_s",
    "cli.manifest": "cli.manifest_s",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _operator_bytes(args, kwargs, result):
    return 16 * args[0].dim ** 2


def _rows(args, kwargs, result):
    return len(result)


# Counters fed by a traced call: (module, attribute path) -> (counter, amount),
# where amount(args, kwargs, result) is evaluated after the call returned.
COUNTER_HOOKS = {
    ("iqpe.statekit", "herm_eig"): (
        "statekit.herm_eig.d3_sum", lambda a, k, r: _arg(a, k, 0, "op").dim ** 3
    ),
    ("iqpe.statekit", "HermitianOperator.__post_init__"): ("statekit.operator_bytes", _operator_bytes),
    ("iqpe.statekit", "UnitaryMatrix.__post_init__"): ("statekit.operator_bytes", _operator_bytes),
    ("iqpe.scenarios", "rotation_qfi_map"): ("scenarios.map_points", _rows),
    ("iqpe.scenarios", "birefringence_qfi_map"): ("scenarios.map_points", _rows),
    ("iqpe.protocol", "monte_carlo_precision"): (
        "protocol.trials", lambda a, k, r: _arg(a, k, 3, "trials")
    ),
    ("iqpe.emulator", "synthesize_record"): ("emulator.samples", lambda a, k, r: r.ch1.size),
}

# Counts computed at the layer boundaries: (name, unit, better).
COUNTERS = [
    ("statekit.herm_eig.d3_sum", "count", "lower"),
    ("statekit.operator_bytes", "bytes", "lower"),
    ("scenarios.map_points", "count", "higher"),
    ("protocol.trials", "count", "higher"),
    ("emulator.samples", "count", "higher"),
    ("cli.artifact_bytes", "bytes", "lower"),
    ("cli.artifact_files", "count", "lower"),
]


def metric_names() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in a fixed order."""
    names = [("cli.import_s", "s", "lower"), ("cli.main_s", "s", "lower")]
    for span in SPAN_NAMES:
        names.append((span + ".calls", "count", "lower"))
        names.append((SELF_METRIC.get(span, span + ".self_s"), "s", "lower"))
        names.append((span + ".errors", "count", "lower"))
    names += COUNTERS
    names.append(("trace_overhead_s", "s", "lower"))
    return names


def summarize(path) -> dict[str, float]:
    """Per-layer totals of one span file: calls, self time, errors, counters."""
    with open(path, encoding="utf-8") as fh:
        trace = json.load(fh)
    names = trace["names"]
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = dict(trace["counters"])
    totals["cli.import_s"] = trace["import_s"]
    totals["cli.main_s"] = 0.0
    for k, (name_id, start, end, parent, error) in enumerate(spans):
        name = names[name_id]
        if name == "cli.main":
            totals["cli.main_s"] += end - start
            continue
        self_key = SELF_METRIC.get(name, name + ".self_s")
        totals[self_key] = totals.get(self_key, 0.0) + (end - start - child_time[k])
        totals[name + ".calls"] = totals.get(name + ".calls", 0) + 1
        totals[name + ".errors"] = totals.get(name + ".errors", 0) + error
    return totals


class Recorder:
    """Spans and counters of one process, kept in memory until ``dump``."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.counters = {name: 0 for name, _, _ in COUNTERS}

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, name, counter=None):
        name_id = self._name_id(name)
        spans, stack, counters = self.spans, self.stack, self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            error = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error = 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, error)
            if counter is not None:
                key, amount = counter
                counters[key] += amount(args, kwargs, result)
            return result

        return traced

    def count_artifacts(self, fn):
        counters = self.counters

        def counted(path, data):
            fn(path, data)
            counters["cli.artifact_files"] += 1
            counters["cli.artifact_bytes"] += len(data)

        return counted

    def dump(self, path, command_id: str, import_s: float) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        payload = {
            "command": command_id,
            "import_s": import_s,
            "names": self.names,
            "spans": [[n, s - origin, e - origin, p, err] for n, s, e, p, err in self.spans],
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def _replace(module_name: str, path: str, replacement_for) -> None:
    """Swap ``module.path`` and every iqpe module's binding of the same object."""
    *owners, attr = path.split(".")
    owner = sys.modules.get(module_name)
    for name in owners:
        owner = getattr(owner, name, None)
    original = getattr(owner, attr, None)
    if original is None:
        raise SystemExit(f"trace target {module_name}.{path} not found; "
                         "update TARGETS in bench/tracer.py")
    replacement = replacement_for(original)
    setattr(owner, attr, replacement)
    if not owners:
        for name, mod in list(sys.modules.items()):
            if name == "iqpe" or name.startswith("iqpe."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, replacement)


def install(recorder: Recorder) -> None:
    for module_name, path, span in TARGETS:
        counter = COUNTER_HOOKS.get((module_name, path))
        _replace(module_name, path, lambda fn: recorder.wrap(fn, span, counter))
    _replace("iqpe.cli", "_atomic_write", recorder.count_artifacts)


def main(argv: list[str]) -> int:
    spans_path, command_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json COMMAND_ID -- <iqpe arguments>")
    start = time.perf_counter()
    import iqpe.cli

    import_s = time.perf_counter() - start
    recorder = Recorder()
    install(recorder)
    run = recorder.wrap(iqpe.cli.main, "cli.main")
    try:
        return run(cli_args)
    finally:
        recorder.dump(spans_path, command_id, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
