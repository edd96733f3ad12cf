"""Spans around the library's public calls, recorded from outside the package.

``Tracer.install`` rebinds each layer's public functions where their callers
look them up (``lqgcap.upper_bound.solve_barrier`` and
``lqgcap.scop.solve_barrier`` are separate bindings of one function) and
``Tracer.remove`` restores the originals.  Every call records a span
``(name, start, end, parent, item, extra)`` in memory; ``summarize`` turns the
spans of one pass into per-layer self times and counts.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter

from lqgcap import barrier, constants, lower_bound, riccati, scop, simulator, upper_bound

LAYERS = ("riccati", "constants", "upper_bound", "barrier", "lower_bound",
          "scop", "simulator", "bench")


def _iters(args, kwargs, result):
    return result.iterations


def _policy(args, kwargs, result):
    return (result.iterations, result.bootstrapped)


def _barrier_solve(args, kwargs, result):
    _, info = result
    tol = args[2] if len(args) > 2 else kwargs["tol"]
    return (info.iterations, info.duality_gap > tol)


def _t_arg(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["t"]


def _scop_dim(args, kwargs, result):
    return args[0].dim


def _sim_steps(args, kwargs, result):
    cfg = args[3] if len(args) > 3 else kwargs["cfg"]
    return cfg.trajectories * cfg.horizon


# (owner, attribute, span name, extra recorder, is a classmethod)
_TARGETS = (
    (riccati, "solve_filter_riccati", "riccati.filter", _iters, False),
    (riccati, "solve_control_riccati", "riccati.control", _iters, False),
    (riccati, "solve_policy_riccati", "riccati.policy", _policy, False),
    (constants.ProblemConstants, "compute", "constants.compute", None, True),
    (upper_bound, "solve_ub", "upper_bound.solve", None, False),
    (upper_bound, "feasibility", "upper_bound.feasibility", None, False),
    (upper_bound, "solve_barrier", "barrier.solve", _barrier_solve, False),
    (scop, "solve_barrier", "barrier.solve", _barrier_solve, False),
    (barrier.BarrierProgram, "merit", "barrier.merit", _t_arg, False),
    (barrier.BarrierProgram, "grad_hess", "barrier.grad_hess", _t_arg, False),
    (lower_bound, "extract_policy", "lower_bound.extract", None, False),
    (lower_bound, "evaluate_policy", "lower_bound.evaluate", None, False),
    (lower_bound, "tightness_certificate", "lower_bound.certificate", None, False),
    (scop, "solve_scop", "scop.solve", None, False),
    (scop.SCOPProgram, "__init__", "scop.build", _scop_dim, False),
    (scop, "average_variables", "scop.average", None, False),
    (simulator, "simulate", "simulator.simulate", _sim_steps, False),
    (simulator, "compare_to_theory", "simulator.compare", None, False),
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []
        self.item: str | None = None

    def _wrap(self, name, fn, extra):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item, None)
            if extra is not None:
                spans[idx] = (name, start, end, parent, self.item,
                              extra(args, kwargs, result))
            return result

        return traced

    def install(self):
        for owner, attr, name, extra, is_cm in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            fn = original.__func__ if is_cm else original
            wrapped = self._wrap(name, fn, extra)
            setattr(owner, attr, classmethod(wrapped) if is_cm else wrapped)

    def remove(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_item(self, item_id: str, fn, *args):
        """Run one item under its root span ``bench.item``."""
        self.item = item_id
        try:
            return self._wrap("bench.item", fn, None)(*args)
        finally:
            self.item = None


def _rounds(events, max_inner):
    """(rounds, uncentred) from one solve's merit/grad_hess calls in order.

    A round is a run of calls at one t.  It is uncentred when it made
    max_inner Newton iterations and the last one still searched for a step,
    i.e. the inner loop ran out instead of breaking on the decrement.
    """
    rounds = uncentred = 0
    t_cur, gh, last = None, 0, None
    for kind, t in events:
        if t is not None and t != t_cur:
            if t_cur is not None and gh >= max_inner and last == "merit":
                uncentred += 1
            rounds += 1
            t_cur, gh = t, 0
        if kind == "grad_hess":
            gh += 1
        last = kind
    if t_cur is not None and gh >= max_inner and last == "merit":
        uncentred += 1
    return rounds, uncentred


def summarize(spans: list, max_inner: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of one pass's spans, and trace check failures.

    A span's self time is its duration minus its children's, booked to the
    layer that names the span.  Barrier work done for ``scop.solve`` stays in
    ``barrier`` and is also counted in ``scop.newton_steps`` and
    ``scop.merit_evals``.  The checks:

    - every ``barrier.merit`` and ``barrier.grad_hess`` span has a
      ``barrier.solve`` parent, so no binding of ``solve_barrier`` escaped
      the tracer and rounds are grouped by the solve that made them;
    - the gradient and merit calls of each solve agree with the Newton
      steps it reports and the rounds and uncentred rounds counted from its
      calls (see the comment at the check);
    - every span lies under an item's root span, and the self times of an
      item's spans sum to that root span.
    """
    n = len(spans)
    child = [0.0] * n
    for name, s, e, parent, item, extra in spans:
        if parent >= 0:
            child[parent] += e - s
    in_scop = [False] * n
    solve_steps = {}
    misparented = Counter()
    self_ms = defaultdict(float)
    incl = defaultdict(float)
    calls = defaultdict(int)
    item_self = defaultdict(float)
    item_root = {}
    problems = []
    m = defaultdict(float)
    solve_events = defaultdict(list)
    item_newton = defaultdict(int)
    policy_iters_max = 0
    dims = [0]
    for i, (name, s, e, parent, item, extra) in enumerate(spans):
        dur = e - s
        own = dur - child[i]
        layer = name.split(".", 1)[0]
        in_scop[i] = name == "scop.solve" or (parent >= 0 and in_scop[parent])
        self_ms[layer] += own * 1e3
        incl[name] += dur * 1e3
        calls[name] += 1
        item_self[item] += own
        if name == "bench.item":
            item_root[item] = dur
        elif name in ("barrier.merit", "barrier.grad_hess"):
            if parent < 0 or spans[parent][0] != "barrier.solve":
                misparented[item, name, spans[parent][0] if parent >= 0 else "no span"] += 1
            solve_events[parent].append((name[8:], extra))
            if in_scop[i] and name == "barrier.merit":
                m["scop.merit_evals"] += 1
        elif name == "barrier.solve" and extra is not None:
            steps, early = extra
            solve_steps[i] = (item, steps, early)
            m["barrier.newton_steps"] += steps
            m["barrier.early_stops"] += early
            item_newton[item] += steps
            if in_scop[i]:
                m["scop.newton_steps"] += steps
        elif name in ("riccati.filter", "riccati.control") and extra is not None:
            m[f"{name}_iters"] += extra
        elif name == "riccati.policy" and extra is not None:
            m["riccati.policy_iters"] += extra[0]
            m["riccati.policy_bootstraps"] += extra[1]
            policy_iters_max = max(policy_iters_max, extra[0])
        elif name == "scop.build" and extra is not None:
            dims.append(extra)
        elif name == "simulator.simulate" and extra is not None:
            m["simulator.steps"] += extra
    for item, root in item_root.items():
        if abs(item_self[item] - root) > 1e-9 + 1e-9 * root:
            problems.append(f"{item}: span self times sum to {item_self[item]:.9f} s, "
                            f"item span is {root:.9f} s")
    problems += [f"{item}: {k} {name} calls under {owner}, not barrier.solve"
                 for (item, name, owner), k in misparented.items()]
    for item in item_self:
        if item not in item_root:
            problems.append(f"spans outside any item span (item {item})")

    for i, (item, steps, early) in solve_steps.items():
        events = solve_events.get(i, [])
        r, u = _rounds(events, max_inner)
        gh = sum(kind == "grad_hess" for kind, _ in events)
        merits = len(events) - gh
        # Every inner iteration takes one gradient and ends in a step, or in
        # the break (or, on an early stop, the error) that closes its round;
        # a round that runs out of iterations has no closing one.  Each round
        # opens with a merit call and each step takes at least one more.
        if not steps + r - u - early <= gh <= steps + r - u or merits < steps + r:
            problems.append(f"{item}: solve reports {steps} Newton steps; its "
                            f"{r} rounds ({u} uncentred) made {gh} gradient "
                            f"and {merits} merit calls")
    for parent, events in solve_events.items():
        r, u = _rounds(events, max_inner)
        m["barrier.rounds"] += r
        m["barrier.uncentred_rounds"] += u
    total_ms = sum(item_root.values()) * 1e3
    out = {
        "barrier.solve_ms": incl["barrier.solve"],
        "barrier.solve_calls": calls["barrier.solve"],
        "barrier.newton_steps": m["barrier.newton_steps"],
        "barrier.rounds": m["barrier.rounds"],
        "barrier.merit_evals": calls["barrier.merit"],
        "barrier.merit_ms": incl["barrier.merit"],
        "barrier.grad_hess_evals": calls["barrier.grad_hess"],
        "barrier.grad_hess_ms": incl["barrier.grad_hess"],
        "barrier.step_accept_ratio": (m["barrier.newton_steps"] / calls["barrier.merit"]
                                      if calls["barrier.merit"] else 0.0),
        "barrier.uncentred_rounds": m["barrier.uncentred_rounds"],
        "barrier.early_stops": m["barrier.early_stops"],
        "barrier.item_newton_min": min(item_newton.values(), default=0),
        "barrier.item_newton_max": max(item_newton.values(), default=0),
        "riccati.filter_ms": incl["riccati.filter"],
        "riccati.filter_iters": m["riccati.filter_iters"],
        "riccati.control_ms": incl["riccati.control"],
        "riccati.control_iters": m["riccati.control_iters"],
        "riccati.policy_ms": incl["riccati.policy"],
        "riccati.policy_iters": m["riccati.policy_iters"],
        "riccati.policy_iters_max": policy_iters_max,
        "riccati.policy_bootstraps": m["riccati.policy_bootstraps"],
        "constants.compute_ms": incl["constants.compute"],
        "constants.compute_calls": calls["constants.compute"],
        "upper_bound.solve_ms": incl["upper_bound.solve"],
        "upper_bound.feasibility_ms": incl["upper_bound.feasibility"],
        "lower_bound.extract_ms": incl["lower_bound.extract"],
        "lower_bound.evaluate_ms": incl["lower_bound.evaluate"],
        "lower_bound.certificate_ms": incl["lower_bound.certificate"],
        "scop.build_ms": incl["scop.build"],
        "scop.solve_ms": incl["scop.solve"],
        "scop.dim": max(dims),
        "scop.newton_steps": m["scop.newton_steps"],
        "scop.merit_evals": m["scop.merit_evals"],
        "simulator.simulate_ms": incl["simulator.simulate"],
        "simulator.steps_per_s": (m["simulator.steps"] / (incl["simulator.simulate"] / 1e3)
                                  if incl["simulator.simulate"] else 0.0),
        "simulator.compare_ms": incl["simulator.compare"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ms[layer]
        out[f"{layer}.self_share"] = self_ms[layer] / total_ms if total_ms else 0.0
    out["bench.spans"] = n
    return out, problems


def median_metrics(per_pass: list[dict]) -> dict:
    """Times are medians over passes; counts come from the first pass."""
    out = dict(per_pass[0])
    for key in out:
        if key.endswith(("_ms", "_share", "_per_s")):
            out[key] = statistics.median(p[key] for p in per_pass)
    return out
