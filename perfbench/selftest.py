#!/usr/bin/env python3
"""Self-test of the benchmark on short settings (a few seconds).

    python3 perfbench/selftest.py

Checks, for each workload shrunk to a few small inputs:

- a traced and an untraced pass agree on every count, quality figure and
  check result, and all checks pass;
- span self times plus benchmark glue add up to the traced pass time;
- every layer the workload calls has recorded time, and the tracing
  wrappers are gone afterwards;
- the traced run yields every per-layer metric BENCHMARK.json declares;
- a different seed gives different inputs, the same seed the same ones;

and that the `suite` pipeline reproduces `run_suite`'s success
probabilities when scored against the program's own target.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import run

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Direct, Tracer  # noqa: E402

from qpart.bench import BenchInstance, run_suite  # noqa: E402

SHORT = {
    "suite": lambda: workloads.Suite(count=4, n_min=4, n_max=6, runs=6, sweeps=30),
    "build": lambda: workloads.Build(n=8, colors=8),
    "exact": lambda: workloads.Exact(log_sizes=(4, 5), onehot_n=3, path_colors=4, runs=6, sweeps=30),
}

# Span metrics of the layers each workload never calls; every other one
# must have recorded time, `energy_vector` called inside qpart included.
UNTIMED = {
    "suite": ["pbo.ground_states_s", "pbo.energy_vector_s", "quadratize.verify_s", "model.to_json_s",
              "model.from_json_s", "gates.oracle_s"],
    "build": ["graphs.chromatic_s", "onehot.decode_s", "logenc.decode_s", "quadratize.verify_s",
              "pbo.ground_states_s", "pbo.energy_vector_s", "solve.anneal_s", "bench.tts_s", "bench.km_s"],
    "exact": ["model.to_json_s", "model.from_json_s", "gates.oracle_s", "bench.km_s"],
}


def inputs_key(inputs: dict) -> str:
    """A comparable rendering of a workload's generated inputs (graphs and parameters)."""
    return repr({k: v for k, v in inputs.items() if k != "seed"})


def check_workload(name: str, seed: int):
    """Yields (passed, description) for each check on one shrunk workload."""
    wl = SHORT[name]()
    _, per_layer_units = run.load_spec()

    originals = {fn: getattr(sys.modules[module], fn) for module, fn in run.TRACED}
    tracer = Tracer()
    with tracer.nested(run.TRACED), tracer.phase("setup") as setup_root:
        inputs = wl.setup(seed)
    with HostSpeed() as host:
        plain = run.timed_pass(wl, inputs, Direct())
        with tracer.nested(run.TRACED):
            traced = run.timed_pass(wl, inputs, tracer)
    for p in (plain, traced):
        p.corrected_s = host.corrected(p.start, p.end)
    modules = [workloads] + [m for key, m in sys.modules.items() if key.startswith("qpart")]
    restored = all(vars(m).get(fn, obj) is obj for m in modules for fn, obj in originals.items())
    yield restored, f"{name}: tracing wrappers are removed after the traced pass"

    yield plain.stats == traced.stats, f"{name}: traced and untraced passes give the same stats"
    yield plain.failed == traced.failed == [], f"{name}: every output check passes, traced or not"
    yield plain.attempted == traced.attempted >= 1, f"{name}: same number of items attempted"

    root = tracer.spans[traced.root]
    self_total = sum(tracer.self_times(traced.root).values())
    yield abs(self_total - (root.end - root.start)) < 1e-6, f"{name}: layer self times plus glue = traced wall"

    values = run.layer_metrics(tracer, setup_root, traced, plain, per_layer_units)
    missing = sorted(set(per_layer_units) - set(values))
    yield not missing, f"{name}: every declared per-layer metric is measured {missing or ''}"
    untimed = sorted(m for m in set(run.SPAN_METRICS.values()) & set(values) if values[m] == 0)
    yield untimed == sorted(UNTIMED[name]), f"{name}: every layer the workload calls is timed {untimed}"

    same = inputs_key(wl.setup(seed)) == inputs_key(inputs)
    other = inputs_key(wl.setup(seed + 1)) != inputs_key(inputs)
    yield same and other, f"{name}: inputs follow the seed"


def check_suite_matches_run_suite(seed: int):
    wl = SHORT["suite"]()
    inputs = wl.setup(seed)
    result = wl.run(inputs, Direct())
    report = run_suite(
        [BenchInstance(i.instance_id, i.graph, colors=i.colors) for i in inputs["instances"]],
        inputs["params"],
    )
    ours = {
        (r.item_id, enc): Fraction(r.data[f"program_hits_{enc}"], inputs["params"].runs)
        for r in result.items
        for enc in wl.encodings
    }
    theirs = {(rec.instance_id, rec.encoding): rec.p_s for rec in report.records}
    yield ours == theirs, "suite: same success probabilities as run_suite against its own target"


def main() -> int:
    checks = [check for name in SHORT for check in check_workload(name, seed=3)]
    checks += list(check_suite_matches_run_suite(seed=3))
    for ok, what in checks:
        print(("ok   " if ok else "FAIL ") + what)
    failed = sum(1 for ok, _ in checks if not ok)
    print(f"{failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
