"""scripts/bench_ab.py's merge and summary steps, on fake result files: no perfbench run."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)

WALLS = {"parent": [7.0, 7.2, 6.9], "change": [3.8, 4.0, 7.5]}


def result(wall_s):
    return {"metrics": {"wall_s": {"value": wall_s, "unit": "s"}}, "failed": 0}


def test_merge_keys_each_side_by_stem(tmp_path):
    dirs = {}
    for side, walls in WALLS.items():
        dirs[side] = tmp_path / side
        dirs[side].mkdir()
        for i, wall_s in enumerate(walls):
            (dirs[side] / f"suite-seed0-trace0-pair{i:02d}.json").write_text(json.dumps(result(wall_s)))
        (dirs[side] / "notes.txt").write_text("not a result")
    # a traced parent run whose change run never finished
    traced = {**result(0.8), "spans": [{"name": "solve.anneal", "start": 0.0, "end": 0.8, "parent": None}]}
    (dirs["parent"] / "exact-seed0-trace1-pair00.json").write_text(json.dumps(traced))

    merged = bench_ab.merge(dirs)

    expected = {
        side: {f"suite-seed0-trace0-pair{i:02d}": result(w) for i, w in enumerate(walls)} for side, walls in WALLS.items()
    }
    expected["parent"]["exact-seed0-trace1-pair00"] = result(0.8)
    assert merged == expected
    assert list(merged["parent"]) == sorted(merged["parent"])


def test_summary_gives_medians_quartiles_and_pairs_won():
    merged = {
        side: {f"suite-seed0-trace0-pair{i:02d}": result(w) for i, w in enumerate(walls)} for side, walls in WALLS.items()
    }
    # runs the change side lacks; no run reports setup_s, so it gets no line
    merged["parent"]["exact-seed0-trace1-pair00"] = result(0.8)
    merged["parent"]["suite-seed0-trace0-pair03"] = result(5.0)
    end_to_end = [
        {"name": "wall_s", "unit": "s", "better": "lower"},
        {"name": "setup_s", "unit": "s", "better": "lower"},
        {"name": "hits", "unit": "count", "better": "higher"},
    ]
    for side in merged:
        for i, key in enumerate(sorted(merged[side])):
            merged[side][key]["metrics"]["hits"] = {"value": i if side == "parent" else 1, "unit": "count"}

    assert bench_ab.summary(merged, end_to_end).splitlines() == [
        # parent 6.9, 7.0, 7.2 and 5.0 (pair 3, which the change lacks)
        "suite-seed0-trace0 wall_s [s]: parent 6.95 (6.425-7.05), change 4 (3.9-5.75); change won 2/3 pairs",
        # parent hits 1-4 over pairs 0-3, change 1 in each: pair 0 is a tie, which counts for neither side
        "suite-seed0-trace0 hits [count]: parent 2.5 (1.75-3.25), change 1 (1-1); change won 0/3 pairs",
    ]
