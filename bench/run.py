#!/usr/bin/env python3
"""Benchmark of the lqgcap library: one workload per invocation.

    python3 bench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --write-reference

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the items run untraced and the last line of
standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced pass.  Lines before
it give each metric with its unit and sample count, the failures with their
reasons, and the run environment.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT_DIR = HERE / "out"
SETUP_RUNS = 11
SETUP_TIMEOUT_S = 120


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("sweep", "scop-ladder", "simulate"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, default=None,
                    help="run only the first N items (smoke test)")
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print their digest and exit")
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite bench/reference.json from seed 0")
    args = ap.parse_args(argv)
    if args.workload is None and not args.write_reference:
        ap.error("--workload is required")
    return args


def _require_checkout():
    if not (ROOT / "src" / "lqgcap" / "__init__.py").is_file():
        sys.exit(f"bench: no lqgcap sources under {ROOT / 'src'}")
    if not (ROOT / "configs").is_dir():
        sys.exit(f"bench: no configs directory under {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))


# -- environment ----------------------------------------------------------------

def calibrate_ms() -> float:
    """Median of three timings of a fixed numpy loop; reported, never divided by."""
    a = np.random.default_rng(0).standard_normal((48, 48))
    s = a @ a.T + 48.0 * np.eye(48)
    reps = []
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(400):
            c = np.linalg.cholesky(s)
            np.linalg.solve(c, s)
        reps.append((perf_counter() - t0) * 1e3)
    return statistics.median(reps)


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_id = "unknown"
    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=30)
        if r.returncode == 0:
            commit = r.stdout.strip()
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_id, "commit": commit, "seed": seed,
            "threads": os.environ["OPENBLAS_NUM_THREADS"]}


# -- set-up -------------------------------------------------------------------

def measure_setup(args, expected_digest: str) -> list[float]:
    """Wall times of fresh interpreters that import lqgcap and build the inputs."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.items is not None:
        cmd += ["--items", str(args.items)]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=SETUP_TIMEOUT_S)
        times.append(perf_counter() - t0)
        got = r.stdout.strip().splitlines()[-1:] if r.returncode == 0 else []
        if got != [expected_digest]:
            sys.exit(f"bench: set-up run disagrees (exit {r.returncode}, "
                     f"digest {got}, want {expected_digest}): {r.stderr[-500:]}")
    return times


# -- timed passes ---------------------------------------------------------------

class Runner:
    """Runs items, gates their outputs and keeps latencies and failures."""

    def __init__(self, items, reference: dict):
        import workloads

        self.wl = workloads
        self.items = items
        self.reference = reference
        self.outputs = [None] * len(items)
        self.attempted = 0
        self.failures = Counter()
        self.failed = 0

    def run(self, idx: int, tracer=None) -> float:
        item = self.items[idx]
        t0 = perf_counter()
        try:
            if tracer is None:
                out = self.wl.run_item(item)
            else:
                out = tracer.run_item(item.id, self.wl.run_item, item)
        except Exception as e:  # a library error fails the item, with its reason
            out, reasons = None, [f"raised {type(e).__name__}: {e}"]
        dt = perf_counter() - t0
        if out is not None:
            reasons = self.wl.check(item, out)
            if item.id in self.reference:
                reasons += self.wl.compare_reference(self.reference[item.id], out)
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.failures.update(f"{item.id}: {r}" for r in reasons)
        self.outputs[idx] = out
        return dt

    def run_pass(self, tracer=None) -> list[float]:
        return [self.run(idx, tracer) for idx in range(len(self.items))]


def _percentile(values, q):
    return float(np.percentile(values, q))


def end_to_end(runner: Runner, seconds: float, setup: list[float]) -> tuple[dict, dict]:
    """Cycle through the items until `seconds` have passed and every item ran."""
    n = len(runner.items)
    latency = [[] for _ in range(n)]
    start = perf_counter()
    i = 0
    while i < n or perf_counter() - start < seconds:
        latency[i % n].append(runner.run(i % n))
        i += 1
    # An item's latency is the mean of its executions in the run.  The
    # host's speed flips between about 1x and 0.55x every few tens of ms and
    # the mix drifts over minutes; across runs the per-item mean was steadier
    # than the per-item minimum, median or lower quartile.
    mean = [statistics.fmean(lat) for lat in latency]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        # across runs the median of 11 set-ups was steadier than their
        # minimum or mean
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (sum(mean), "s"),
        "item_ms_p50": (_percentile(mean, 50) * 1e3, "ms"),
        "item_ms_p75": (_percentile(mean, 75) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    counts = {"setup_s": f"median of {len(setup)} set-ups",
              "wall_s": f"sum of {n} per-item means over {i} executions",
              "item_ms_p50": f"{n} items", "item_ms_p75": f"{n} items",
              "peak_rss_mb": "1 process"}
    return metrics, counts


def _defects(outs: list[dict]) -> dict:
    """Known defects of the seed among bound outputs, counted, never gated."""
    outs = [o for o in outs if o is not None and "ub_rate" in o]
    return {"lower_bound.overspend_items":
                sum(o["achieved_budget"] > o["budget"] for o in outs),
            "lower_bound.lb_above_ub_items": sum(o["lb_rate"] > o["ub_rate"] for o in outs),
            "lower_bound.certified_items": sum(bool(o.get("certified")) for o in outs),
            "simulator.verdict_fail_items": sum(o.get("verdict_ok") is False for o in outs)}


def group_lines(runner: Runner) -> list[str]:
    """Per config: Newton and policy-iteration ranges, defect counts."""
    groups = {}
    for item, out in zip(runner.items, runner.outputs):
        if out is not None:
            groups.setdefault(item.group, []).append(out)
    lines = []
    for name, outs in sorted(groups.items()):
        newton = [o["newton"] for o in outs if "newton" in o]
        line = f"  group {name}: {len(outs)} items"
        if newton:
            line += f", newton {min(newton)}-{max(newton)}"
        if "ub_rate" in outs[0]:
            d = _defects(outs)
            line += (f", policy_iters max {max(o['policy_iters'] for o in outs)}, "
                     f"overspend {d['lower_bound.overspend_items']}/{len(outs)}, "
                     f"lb>ub {d['lower_bound.lb_above_ub_items']}/{len(outs)}")
        lines.append(line)
    return lines


def per_layer(runner: Runner, seconds: float, workload: str, seed: int):
    """Alternate untraced and traced passes (order flipped per pair) until
    `seconds` have passed; layer metrics come from the traced passes."""
    import tracing
    from lqgcap.barrier import MAX_INNER

    plain, traced, summaries, problems, span_sets = [], [], [], [], []
    start = perf_counter()
    order = [False, True]
    while not traced or perf_counter() - start < seconds:
        for with_trace in order:
            if not with_trace:
                plain.append(runner.run_pass())
                continue
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced.append(runner.run_pass(tracer))
            finally:
                tracer.remove()
            summary, bad = tracing.summarize(tracer.spans, MAX_INNER)
            summary.update(_defects(runner.outputs))
            summaries.append(summary)
            problems += bad
            span_sets.append(tracer.spans)
        order.reverse()
    metrics = tracing.median_metrics(summaries)
    # passes come in pairs, so total times compare like mean pass times
    metrics["bench.trace_overhead_frac"] = (sum(map(sum, traced))
                                            / sum(map(sum, plain)) - 1.0)
    metrics["bench.traced_passes"] = len(traced)
    _write_spans(span_sets, workload, seed)
    return metrics, problems


def _write_spans(span_sets, workload: str, seed: int):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}.csv"
    with open(path, "w") as fh:
        fh.write("pass,item,name,start_us,end_us,parent,extra\n")
        for k, spans in enumerate(span_sets):
            t0 = spans[0][1] if spans else 0.0
            for name, s, e, parent, item, extra in spans:
                fh.write(f"{k},{item},{name},{(s - t0) * 1e6:.1f},"
                         f"{(e - t0) * 1e6:.1f},{parent},\"{extra}\"\n")
    print(f"spans written to {path.relative_to(ROOT)}")


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_share", "_frac", "_ratio")):
        return "frac"
    if name.endswith("_per_s"):
        return "1/s"
    return "count"


# -- entry points ----------------------------------------------------------------

def write_reference():
    import workloads

    ref = {}
    for wl in workloads.WORKLOADS:
        entries = {}
        for item in workloads.make_items(ROOT, wl, 0):
            entries[item.id] = workloads.run_item(item)
        ref[wl] = entries
        print(f"{wl}: {len(entries)} items")
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = parse_args(argv)
    _require_checkout()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.write_reference:
        write_reference()
        return 0
    items = workloads.make_items(ROOT, args.workload, args.seed)
    if args.items is not None:
        items = items[:args.items]
    if args.setup_only:
        print(workloads.digest(items))
        return 0

    env = environment(args.seed)
    env["calibration_ms"] = calibrate_ms()
    reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
    runner = Runner(items, reference)
    problems = []
    if args.trace:
        values, problems = per_layer(runner, args.seconds, args.workload, args.seed)
        metrics = {k: (v, _unit(k)) for k, v in values.items()}
        counts = {k: f"{len(items)} items per pass" for k in values}
    else:
        setup = measure_setup(args, workloads.digest(items))
        metrics, counts = end_to_end(runner, args.seconds, setup)
    env["calibration_ms_after"] = calibrate_ms()

    print(f"workload {args.workload}, seed {args.seed}, {len(items)} items, "
          f"{runner.attempted} executions")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} ({counts[name]})")
    print(f"  failed_frac = {runner.failed}/{runner.attempted} = "
          f"{runner.failed / runner.attempted:.6g}")
    for reason, n in sorted(runner.failures.items()):
        print(f"    failed x{n}: {reason}")
    for p in problems:
        print(f"    trace check: {p}")
    if args.trace:
        print("\n".join(group_lines(runner)))
    print("env " + json.dumps(env))
    result = {"correct": runner.failed == 0 and not problems,
              "attempted": runner.attempted, "failed": runner.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
