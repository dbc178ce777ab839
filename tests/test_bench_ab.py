"""scripts/bench_ab.py's merge step, on fake result files: no perfbench run."""

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
