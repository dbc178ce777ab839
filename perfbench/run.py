#!/usr/bin/env python3
"""Run one qpart benchmark workload and print its metrics.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; qpart is imported from `src/`.
The workloads (`suite`, `build`, `exact`) are defined in `workloads.py`
and the metric names and units in `BENCHMARK.json` at the root.

Untraced (`--trace 0`): set-up runs several times and its median is
reported; then the timed phase repeats passes over the same inputs, at
least one and as many as fit in `--seconds`. `wall_s` is the low median
(`statistics.median_low`) of the pass times corrected for host
contention (see `hostspeed.py`), and the parts of `setup_s` are corrected
too. Of two passes the low median is the faster: contention only ever
slows a pass, and one slowed pass should not move the figure. The low
medians of the raw pass times and CPU times are printed beside it, so
that a gain on `wall_s` can be checked against them; they are not
bounded metrics, as host contention spreads them too widely. Outputs of
every pass are checked outside the timing.

Traced (`--trace 1`): set-up and one pass with a span around every call
of the functions in `SPAN_METRICS`, which gives each layer's self time,
and one untraced pass before it; `trace.overhead_s` is the difference of
the two passes' corrected times.

Every line but the last is for people; the last line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. A results file with
provenance, pass times and (when traced) all spans goes to
`perfbench/out/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import HostSpeed
from tracing import Direct, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5

# Span name -> per-layer metric that sums the spans' self time.
SPAN_METRICS = {
    "graphs.generate_random_connected": "graphs.gen_s",
    "graphs.chromatic_number_exact": "graphs.chromatic_s",
    "onehot.encode_mgc_onehot": "onehot.encode_s",
    "onehot.decode_onehot": "onehot.decode_s",
    "logenc.encode_mgc_log": "logenc.encode_s",
    "logenc.decode_log": "logenc.decode_s",
    "quadratize.quadratize": "quadratize.s",
    "quadratize.verify_quadratization": "quadratize.verify_s",
    "pbo.ground_states": "pbo.ground_states_s",
    "pbo.energy_vector": "pbo.energy_vector_s",
    "model.to_model_json": "model.to_json_s",
    "model.from_model_json": "model.from_json_s",
    "gates.cnot_count_oracle": "gates.oracle_s",
    "solve.anneal": "solve.anneal_s",
    "bench.tts": "bench.tts_s",
    "bench.km_median": "bench.km_s",
}
# The functions the traced run wraps, as (module, function).
TRACED = [(f"qpart.{name.split('.')[0]}", name.split(".")[1]) for name in SPAN_METRICS]
# Counts the workloads report besides the declared per-layer metrics;
# `layer_metrics` turns them into `solve.flips` and the ns-per-flip figures.
FLIP_COUNTS = ("solve.flips_qubo", "solve.flips_hubo")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description="Run one qpart benchmark workload.")
    ap.add_argument("--workload", required=True, choices=["suite", "build", "exact"])
    ap.add_argument("--seed", type=int, required=True, help="workload seed (>= 0)")
    ap.add_argument("--seconds", type=int, required=True, help="length of the timed phase (>= 1)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0, help="1: traced per-layer run")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("need --seed >= 0 and --seconds >= 1")
    return args


def load_spec() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def provenance(workload: str, seed: int) -> dict:
    import numpy

    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "workload": workload,
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout's .git, read directly; None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qpart").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


@dataclass
class Pass:
    start: float
    end: float
    cpu_s: float
    failed: list[str]
    attempted: int
    stats: dict
    root: int | None  # the pass's root span when traced
    corrected_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def timed_pass(wl, inputs, rec) -> Pass:
    """One pass over the inputs, then its checks and stats outside the timing."""
    cpu0, start = time.process_time(), time.perf_counter()
    with rec.phase("pass") as root:
        result = wl.run(inputs, rec)
    end, cpu = time.perf_counter(), time.process_time() - cpu0
    return Pass(start, end, cpu, wl.check(inputs, result), len(result.items), wl.stats(inputs, result), root)


def layer_metrics(tracer, setup_root: int, traced: Pass, ref: Pass, units: dict[str, str]) -> dict[str, float]:
    """Per-layer metrics of a traced run: span self times plus the pass's stats.

    A declared metric of a layer the workload does not exercise is 0.
    """
    stats = traced.stats
    unknown = sorted(set(stats) - set(units) - set(FLIP_COUNTS))
    if unknown:
        raise KeyError(f"workload reports undeclared stats {unknown}")
    out = {**dict.fromkeys(units, 0.0), **dict.fromkeys(FLIP_COUNTS, 0)}
    pass_self = tracer.self_times(traced.root)
    glue = sum(seconds for name, seconds in pass_self.items() if name.startswith("perfbench."))
    for self_times in (tracer.self_times(setup_root), pass_self):
        for name, seconds in self_times.items():
            if not name.startswith("perfbench."):
                out[SPAN_METRICS[name]] += seconds
    traced_wall = tracer.spans[traced.root].end - tracer.spans[traced.root].start
    out.update(stats)
    flips_qubo, flips_hubo = (out[name] for name in FLIP_COUNTS)
    flips = flips_qubo + flips_hubo
    # Each workload anneals one degree class only, so all anneal time is its.
    ns_per_flip = out["solve.anneal_s"] / flips * 1e9 if flips else 0.0
    assignments = out["pbo.assignments"]
    out.update(
        {
            "solve.flips": flips,
            "solve.qubo_ns_per_flip": ns_per_flip if flips_qubo else 0.0,
            "solve.hubo_ns_per_flip": ns_per_flip if flips_hubo else 0.0,
            "pbo.ns_per_assignment": out["pbo.energy_vector_s"] / assignments * 1e9 if assignments else 0.0,
            "run.wall_s": ref.wall_s,
            "run.cpu_s": ref.cpu_s,
            "run.host_slowdown": ref.wall_s / ref.corrected_s,
            "trace.wall_s": traced_wall,
            "trace.glue_s": glue,
            "trace.overhead_s": traced.corrected_s - ref.corrected_s,
        }
    )
    return out


def select(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    """Exactly the declared metrics; a declared metric left unmeasured is a bug."""
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"metrics declared but not measured: {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "qpart" / "__init__.py").is_file():
        print(f"perfbench: no qpart sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    end_to_end_units, per_layer_units = load_spec()

    with HostSpeed() as host:
        import_start = time.perf_counter()
        sys.path.insert(0, str(SRC))
        import workloads

        import_end = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload]()
        prov = provenance(args.workload, args.seed)
        print("provenance " + json.dumps(prov, sort_keys=True))
        if args.trace:
            tracer = Tracer()
            with tracer.nested(TRACED), tracer.phase("setup") as setup_root:
                inputs = wl.setup(args.seed)
            ref = timed_pass(wl, inputs, Direct())
            with tracer.nested(TRACED):
                traced = timed_pass(wl, inputs, tracer)
            passes = [ref, traced]
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                start = time.perf_counter()
                inputs = wl.setup(args.seed)
                setups.append((start, time.perf_counter()))
            passes = []
            timed_start = time.perf_counter()
            while not passes or time.perf_counter() - timed_start + max(p.wall_s for p in passes) <= args.seconds:
                passes.append(timed_pass(wl, inputs, Direct()))
    for p in passes:
        p.corrected_s = host.corrected(p.start, p.end)

    doc: dict = {"provenance": prov}
    if args.trace:
        values = layer_metrics(tracer, setup_root, traced, ref, per_layer_units)
        metrics = select(values, per_layer_units)
        doc["spans"] = tracer.to_json()
    else:
        values = {
            "setup_s": host.corrected(import_start, import_end)
            + statistics.median(host.corrected(start, end) for start, end in setups),
            "wall_s": statistics.median_low(p.corrected_s for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        values.update(passes[-1].stats)
        metrics = select(values, end_to_end_units)

    attempted = sum(p.attempted for p in passes)
    failed_items = sorted({item for p in passes for item in p.failed})
    failed = sum(len(p.failed) for p in passes)
    # Outputs depend only on the seed: every pass, traced or not, must
    # yield the same figures.
    stable = all(p.stats == passes[0].stats for p in passes)
    correct = failed == 0 and stable
    if not stable:
        print("perfbench: passes over the same inputs gave different results", file=sys.stderr)

    for p in passes:
        print(
            f"pass raw_wall_s={p.wall_s:.4f} corrected_s={p.corrected_s:.4f} cpu_s={p.cpu_s:.4f} "
            f"host_slowdown={p.wall_s / p.corrected_s:.3f} failed={len(p.failed)}"
        )
    print(f"fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} items)")
    if not args.trace:
        raw, cpu = (statistics.median_low(getattr(p, key) for p in passes) for key in ("wall_s", "cpu_s"))
        print(f"raw_wall_s = {raw:.6g} s, cpu_s = {cpu:.6g} s (low medians over passes, uncorrected, not bounded)")
    if not args.trace and any(values.get(name) for name in FLIP_COUNTS):
        print(f"hit_frac = {values['hit_frac']:.6g} ratio")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")

    doc.update(
        metrics=metrics,
        attempted=attempted,
        failed=failed,
        failed_items=failed_items,
        passes=[{"wall_s": p.wall_s, "corrected_s": p.corrected_s, "cpu_s": p.cpu_s} for p in passes],
    )
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(doc, indent=1) + "\n")

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
