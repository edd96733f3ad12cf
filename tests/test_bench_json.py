"""bench/run.py prints its results with a plain `json.dumps`, which fails on
NumPy integers and booleans (`Object of type int64 is not JSON
serializable`).  The library must therefore hand the benchmark's chains
built-in Python scalars.  This runs one item of each workload through
bench/workloads.run_item, reading bench/ without changing it, and checks
that each output serializes without a `default` hook."""

import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402

ITEMS = (("sweep", "sweep/scalar/p=2.00740741"),
         ("scop-ladder", "scop/scalar/p=2/h=2"),
         ("simulate", "sim/vector3/p=120/seed=20240802"))


@pytest.mark.parametrize("workload,item_id", ITEMS, ids=[w for w, _ in ITEMS])
def test_item_output_is_plain_json(workload, item_id):
    by_id = {it.id: it for it in workloads.make_items(ROOT, workload, 0)}
    item = by_id[item_id]
    out = workloads.run_item(item)
    assert workloads.check(item, out) == []
    assert json.loads(json.dumps(out)) == out
    for key, value in out.items():
        assert type(value) in (bool, int, float, str), (key, type(value))
