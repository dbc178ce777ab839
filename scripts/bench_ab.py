#!/usr/bin/env python3
"""Run perfbench on two commits in alternating pairs and merge the results.

    python3 scripts/bench_ab.py PARENT CHANGE suite:0:0 suite:1:0 exact:0:1 --out BENCH_<k>.json

Each RUN is `workload:seed:trace`, as `perfbench/run.py` takes them, with
a workload that BENCHMARK.json names. Both commits are extracted with
`git archive` into a temporary directory, so neither side carries a
copied tree or a bytecode cache, and perfbench runs with `PYTHONDONTWRITEBYTECODE=1`: a `cp -r` copy reads higher
`peak_rss_mb`, and a cached import lowers `setup_s`. There are `PAIRS`
pairs, the fewest that can back a claimed gain; pair i runs every RUN on
both sides, the parent first when i is even and the change first when
it is odd. `--out` gets `{"parent": {stem: result}, "change": {stem:
result}}`, where `stem` is perfbench's result file name plus `-pair<i>`
and `result` is that file without its spans: a traced run's per-layer
metrics already sum them, and the spans of ten `suite` runs alone take
megabytes.

After merging it prints a summary to stderr: for each run stem (the
stem without `-pair<i>`) and each end-to-end metric of BENCHMARK.json,
each side's median and quartiles over its pairs, and how many pairs the
change won, ties counting for neither side.

This process reads no result until the last run has ended, so that it
stays small: perfbench's `peak_rss_mb` is `ru_maxrss`, and on Linux a
process started from this one reads at least this one's peak RSS there.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def checkout(commit: str, dest: Path) -> None:
    """The commit's tree, as `git archive` writes it, under `dest`."""
    dest.mkdir(parents=True)
    with subprocess.Popen(["git", "archive", "--format=tar", commit], cwd=ROOT, stdout=subprocess.PIPE) as git:
        with tarfile.open(fileobj=git.stdout, mode="r|") as tf:
            tf.extractall(dest, filter="data")
    if git.returncode:
        raise subprocess.CalledProcessError(git.returncode, git.args)


def run_once(tree: Path, workload: str, seed: str, trace: str, seconds: int) -> Path:
    """Run perfbench in `tree`; the path of its result file."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", seed, "--seconds", str(seconds), "--trace", trace]
    subprocess.run(cmd, cwd=tree, env=env, check=True, stdout=subprocess.DEVNULL)
    return tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"


def merge(results: dict[str, Path]) -> dict[str, dict[str, dict]]:
    """{side: {stem: result without spans}} from each side's directory of result files."""
    merged: dict[str, dict[str, dict]] = {}
    for side, out in results.items():
        merged[side] = {}
        for path in sorted(out.glob("*.json")):
            result = json.loads(path.read_text())
            result.pop("spans", None)
            merged[side][path.stem] = result
    return merged


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """Lower quartile, median and upper quartile, by linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(merged: dict[str, dict[str, dict]], end_to_end: list[dict]) -> str:
    """One line per run stem and end-to-end metric: each side's median
    (quartiles) and the pairs the change won, out of the pairs both sides
    report the metric for."""
    runs: dict[str, dict[str, dict[str, dict]]] = {}  # stem -> side -> pair -> result
    for side, results in merged.items():
        for key, result in results.items():
            stem, pair = key.rsplit("-pair", 1)
            runs.setdefault(stem, {s: {} for s in SIDES})[side][pair] = result
    lines = []
    for stem, sides in sorted(runs.items()):
        for metric in end_to_end:
            name = metric["name"]
            values = {
                side: {pair: r["metrics"][name]["value"] for pair, r in results.items() if name in r.get("metrics", {})}
                for side, results in sides.items()
            }
            if not all(values.values()):
                continue
            sign = 1 if metric["better"] == "lower" else -1
            pairs = values["parent"].keys() & values["change"].keys()
            won = sum(1 for i in pairs if sign * values["change"][i] < sign * values["parent"][i])
            parts = []
            for side in SIDES:
                q1, median, q3 = quartiles(list(values[side].values()))
                parts.append(f"{side} {median:.4g} ({q1:.4g}-{q3:.4g})")
            lines.append(f"{stem} {name} [{metric['unit']}]: {', '.join(parts)}; change won {won}/{len(pairs)} pairs")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="commit of the parent side")
    ap.add_argument("change", help="commit of the change side")
    ap.add_argument("runs", nargs="+", metavar="RUN", help="workload:seed:trace, e.g. suite:0:0")
    ap.add_argument("--out", type=Path, required=True, help="merged results file to write")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = "|".join(re.escape(w["name"]) for w in spec["workloads"])
    bad = [r for r in args.runs if not re.fullmatch(rf"({workloads}):\d+:[01]", r)]
    if bad:
        ap.error(f"need RUNs of the form workload:seed:trace, got {bad}")
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        results = {side: Path(tmp) / f"{side}-results" for side in SIDES}
        for side, commit in zip(SIDES, (args.parent, args.change)):
            checkout(commit, trees[side])
            results[side].mkdir()
        for i in range(PAIRS):
            for run in args.runs:
                workload, seed, trace = run.split(":")
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    print(f"pair {i}: {run} on {side}", file=sys.stderr, flush=True)
                    out = run_once(trees[side], workload, seed, trace, seconds)
                    shutil.move(out, results[side] / f"{out.stem}-pair{i:02d}.json")
        merged = merge(results)
    args.out.write_text(json.dumps(merged, indent=1, sort_keys=True) + "\n")
    print(summary(merged, spec["end_to_end"]), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
