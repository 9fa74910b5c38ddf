"""One pass of a workload in a fresh interpreter.

run.py starts this script with PYTHONPATH pointing at the checkout's src/.
It imports bifill and bifill.cli first and prints "ready", so the parent can
time set-up from process start. It then reads one JSON request from stdin:

  {"items": [...], "trace": false, "spans": null}

runs every item in order (workloads.run_pass), and prints one JSON line:
each item's raw result or error and its seconds, the pass's wall time, the
process's peak RSS and, when traced, the per-layer metrics.
"""

import sys


def main(bifill):
    import json
    import os
    import resource

    import workloads

    src = os.path.realpath(os.path.join("src", "bifill"))
    if os.path.dirname(os.path.realpath(bifill.__file__)) != src:
        sys.exit(f"bifill was imported from {bifill.__file__}, not from {src}")
    request = json.loads(sys.stdin.read())
    tracer = None
    if request["trace"]:
        import trace_layers

        tracer = trace_layers.Tracer()
        tracer.install()
    results, wall = workloads.run_pass(request["items"])
    doc = {
        "items": results,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": None,
    }
    if tracer is not None:
        tracer.uninstall()
        doc["trace"] = tracer.metrics()
        tracer.write_spans(request["spans"])
    print(json.dumps(doc))


if __name__ == "__main__":
    import bifill
    import bifill.cli  # noqa: F401  (set-up is what these imports cost)

    print("ready", flush=True)
    main(bifill)
