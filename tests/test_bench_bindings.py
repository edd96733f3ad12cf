"""The benchmark's traced run rebinds library names from outside the package
(bench/tracing.py) and runs each workload's chain through module attributes
(bench/workloads.py).  A renamed target, or a solve_barrier binding the
tracer does not know, breaks that run without failing any library test.
This runs one scalar sweep item, the scalar and vector3 scop items at
horizon 2, the scalar scop item at horizon 32 and one scalar simulate item
under the tracer, as a traced benchmark pass does, and reads bench/ without
changing it; the Riccati solvers and `ProblemConstants.compute` must show in
the trace, and so must the constants and the policy solve that `simulate`
asks for itself.  The vector3 item builds the horizon program on its k > m face, and
the h=32 item solves on local Newton rows."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from lqgcap import barrier, scop, upper_bound  # noqa: E402
from lqgcap.barrier import MAX_INNER  # noqa: E402

ITEMS = (("sweep", "sweep/scalar/p=2.00740741"),
         ("scop-ladder", "scop/scalar/p=2/h=2"),
         ("scop-ladder", "scop/vector3/p=120/h=2"),
         ("scop-ladder", "scop/scalar/p=2/h=32"),
         ("simulate", "sim/scalar/p=2/seed=20240801"))


def test_traced_items_pass_the_gate_and_the_trace_checks():
    items = []
    for workload, item_id in ITEMS:
        by_id = {it.id: it for it in workloads.make_items(ROOT, workload, 0)}
        items.append(by_id[item_id])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outs = [tracer.run_item(it.id, workloads.run_item, it) for it in items]
    finally:
        tracer.remove()
    assert upper_bound.solve_barrier is barrier.solve_barrier
    assert scop.solve_barrier is barrier.solve_barrier

    summary, problems = tracing.summarize(tracer.spans, MAX_INNER)
    assert problems == []
    for item, out in zip(items, outs):
        assert workloads.check(item, out) == [], item.id
    # one barrier solve per item, each seen by the tracer
    assert summary["barrier.solve_calls"] == len(ITEMS)
    assert summary["barrier.newton_steps"] == sum(out["newton"] for out in outs)
    assert 0 < summary["scop.newton_steps"] < summary["barrier.newton_steps"]
    assert summary["scop.dim"] > 0
    assert summary["upper_bound.feasibility_ms"] > 0
    # the Riccati solvers and the constants, one computation per item and
    # one more inside simulate
    for name in ("filter", "control", "policy"):
        assert summary[f"riccati.{name}_iters"] > 0, name
    assert summary["constants.compute_calls"] == len(ITEMS) + 1
    # simulate's own constants and policy solve, made through the traced names
    sim = [i for i, span in enumerate(tracer.spans)
           if span[0] == "simulator.simulate"]
    assert len(sim) == 1
    assert tracer.spans[sim[0]][4] == "sim/scalar/p=2/seed=20240801"
    under = {span[0] for span in tracer.spans if span[3] == sim[0]}
    assert {"constants.compute", "riccati.policy"} <= under
