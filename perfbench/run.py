"""bifill benchmark: exact verdicts, timed end to end, with a per-layer trace.

    python3 perfbench/run.py --workload census-q3-44 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --seed 1        # all three workloads, one after another

Run from the repository root; bifill is imported from ./src. The seed draws
the workload's items (workloads.plan). Every pass of the items runs in a
fresh child interpreter (child.py), one child at a time, and every result is
checked against perfbench/goldens.json.

--trace 0 starts ten set-up-only children, then runs two passes and more
while the next one should end within --seconds, and prints the end-to-end
metrics:

  setup_s           median time from process start until bifill and
                    bifill.cli are imported, over every child of the run
  wall_s            median wall time of one pass, set-up excluded
  candidates_per_s  candidates classified in a pass / wall_s (families:
                    curves classified)
  peak_rss_mb       largest peak RSS of a pass child

--trace 1 runs one untraced and one traced pass of the same items, prints
the per-layer metrics (trace_layers.PER_LAYER) and writes the spans to
perfbench/out/. End-to-end numbers come from untraced runs only.

The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
attempted counts items (a candidate verdict, a curve's battery, a point
count) over all passes; failed counts those whose verdict differs from the
golden, came out unknown, raised or ran in a child that failed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 10  # set-up-only children per untraced run
MIN_PASSES = 2  # a run never rests on a single pass
HARD_LIMIT_S = 170  # every child is stopped by then, so a run ends within 180 s


class SetupFailed(Exception):
    """The child could not import bifill from this checkout."""


class Child:
    """One finished child: its set-up time, its JSON result (None when it
    failed) and what went wrong."""

    def __init__(self, setup_s, doc, error, elapsed_s):
        self.setup_s = setup_s
        self.doc = doc
        self.error = error
        self.wall_s = doc["wall_s"] if doc else elapsed_s


def spawn(request, deadline):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py")],
        cwd=ROOT, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - t0))
        line = proc.stdout.readline() if ready else ""
        t_ready = time.perf_counter()
        if line.strip() != "ready":
            proc.kill()
            _, err = proc.communicate()
            raise SetupFailed(err.strip() or "the child did not start")
        try:
            out, err = proc.communicate(json.dumps(request),
                                        timeout=max(0.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return Child(t_ready - t0, None, "stopped at the time limit",
                         time.perf_counter() - t_ready)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    elapsed = time.perf_counter() - t_ready
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return Child(t_ready - t0, None, f"exit code {proc.returncode}: {tail[0]}", elapsed)
    try:
        doc = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return Child(t_ready - t0, None, "no result line", elapsed)
    return Child(t_ready - t0, doc, None, elapsed)


def tally(items, child, goldens):
    """(attempted, failed, candidates) of one pass."""
    results = {r["id"]: r for r in child.doc["items"]} if child.doc else {}
    attempted = failed = candidates = 0
    for item in items:
        res = results.get(item["id"])
        a, f, c = workloads.score(item, res, goldens)
        attempted += a
        failed += f
        candidates += c
        if f and res:
            print(f"  failed: {item['id']}: {res.get('error', 'nonzero exit or verdict off the golden')}")
    if child.error:
        print(f"  child failed: {child.error}")
    return attempted, failed, candidates


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(workload, seed, seconds, goldens):
    items = workloads.plan(workload, seed, goldens)
    deadline = time.perf_counter() + HARD_LIMIT_S
    setups = [spawn({"items": [], "trace": False}, deadline).setup_s
              for _ in range(SETUP_PROBES)]
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(spawn({"items": items, "trace": False}, deadline))
        elapsed = time.perf_counter() - start
        estimate = statistics.median(p.wall_s for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + estimate > seconds:
            break
        if time.perf_counter() + 2 * estimate > deadline:
            break
    attempted = failed = candidates = 0
    for p in passes:
        a, f, candidates = tally(items, p, goldens)
        attempted += a
        failed += f
    setups += [p.setup_s for p in passes]
    walls = [p.wall_s for p in passes]
    wall = statistics.median(walls)
    rss = [p.doc["peak_rss_mb"] for p in passes if p.doc]
    print(f"{workload} seed {seed}: {len(items)} items a pass, {candidates} candidates a pass, "
          f"{len(passes)} passes")
    print(f"  wall_s per pass: {' '.join(f'{w:.3f}' for w in walls)}; fewer than 20 samples "
          "leave no percentile above the median with ten samples beyond it"
          if len(walls) < 20 else f"  wall_s from {len(walls)} passes")
    print(f"  setup_s samples: {len(setups)}; failed_ratio {failed}/{attempted} = "
          f"{failed / attempted:.4g}")
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(wall, "s"),
        "candidates_per_s": metric(candidates / wall, "1/s"),
        "peak_rss_mb": metric(max(rss) if rss else 0.0, "MB"),
    }
    return attempted, failed, metrics


def traced(workload, seed, goldens):
    items = workloads.plan(workload, seed, goldens)
    deadline = time.perf_counter() + HARD_LIMIT_S
    spans = os.path.join(HERE, "out", f"spans-{workload}-seed{seed}.json")
    plain = spawn({"items": items, "trace": False}, deadline)
    probe = spawn({"items": items, "trace": True, "spans": spans}, deadline)
    attempted = failed = 0
    for child in (plain, probe):
        a, f, _ = tally(items, child, goldens)
        attempted += a
        failed += f
    metrics = dict(probe.doc["trace"]) if probe.doc else {}
    metrics["trace_overhead"] = metric(probe.wall_s / plain.wall_s, "ratio")
    print(f"{workload} seed {seed}: traced pass {probe.wall_s:.3f} s, untraced {plain.wall_s:.3f} s; "
          f"spans in {os.path.relpath(spans, ROOT)}")
    print(f"  failed_ratio {failed}/{attempted} = {failed / attempted:.4g}")
    return attempted, failed, metrics


def run_workload(workload, args, goldens):
    if args.trace:
        attempted, failed, metrics = traced(workload, args.seed, goldens)
    else:
        attempted, failed, metrics = measure(workload, args.seed, args.seconds, goldens)
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    return attempted, failed, metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS,
                    help="one workload (default: all, one after another)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "bifill", "__init__.py")):
        print(f"no bifill sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "goldens.json")) as fh:
        goldens = json.load(fh)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_workload(name, args, goldens)
            attempted += a
            failed += f
            if args.workload:
                metrics = m
            else:
                metrics.update({f"{name}.{k}": v for k, v in m.items()})
    except SetupFailed as exc:
        print(f"cannot start bifill: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
