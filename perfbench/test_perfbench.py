"""Checks of the benchmark itself, from the repository root:

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs a few of its cheaper items once untraced and twice traced,
each in a fresh child as run.py runs it.
"""

import json
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import trace_layers  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(HERE, "goldens.json")) as fh:
    GOLDENS = json.load(fh)

REPEATED_COUNTS = (
    "gf.Field.mul.calls",
    "bipoly.divides.calls",
    "bipoly.BiPoly.eval.calls",
    "analysis.certify_smooth.calls",
    "analysis.is_abs_irreducible.calls",
)


def short_plan(workload):
    if workload == "families":
        return [workloads.construct_item(2, False), workloads.construct_item(7, True),
                workloads.count_item(2)]
    items = workloads.plan(workload, 0, GOLDENS)
    if workload == "census-q3-44":
        irr = GOLDENS["census-q3-44"]["irreducible_indices"]
        total = GOLDENS["census-q3-44"]["candidates_scanned"]

        def n_irr(item):
            lo, hi = workloads.slice_bounds(total, *item["part"])
            return sum(lo <= i < hi for i in irr)

        return [next(it for it in items if n_irr(it) == 1)]
    return items[:1]


def passes(items, spans):
    deadline = time.perf_counter() + run.HARD_LIMIT_S
    plain = run.spawn({"items": items, "trace": False}, deadline)
    traced = [run.spawn({"items": items, "trace": True, "spans": spans}, deadline)
              for _ in range(2)]
    return plain, traced


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_counts_repeat_and_verdicts_match(workload):
    items = short_plan(workload)
    spans = os.path.join(HERE, "out", f"spans-test-{workload}.json")
    plain, traced = passes(items, spans)
    for child in [plain] + traced:
        assert child.error is None
        for item, res in zip(items, child.doc["items"]):
            assert workloads.score(item, res, GOLDENS)[1] == 0, item["id"]
    verdicts = [[workloads.verdict(it, r["raw"]) for it, r in zip(items, c.doc["items"])]
                for c in [plain] + traced]
    assert verdicts[0] == verdicts[1] == verdicts[2]
    t1, t2 = (c.doc["trace"] for c in traced)
    for name in REPEATED_COUNTS:
        assert t1[name]["value"] == t2[name]["value"], name
    assert t1["gf.Field.mul.calls"]["value"] > 0
    if workload == "census-q3-44":
        # one golden irreducible: B gives up on it, A certifies it
        assert t1["analysis.is_abs_irreducible.infeasible"]["value"] == 1
        assert t1["analysis.certify_smooth.calls"]["value"] == 1
    if workload == "families":
        assert t1["analysis.find_factor.calls"]["value"] == 0
    with open(spans) as fh:
        doc = json.load(fh)
    names = {s["name"] for s in doc["spans"]}
    assert "cli.main" in names or "search.census" in names
    assert all(s["self_s"] <= s["end_s"] - s["start_s"] + 1e-9 for s in doc["spans"])


def test_wrong_verdicts_fail():
    item = workloads.cli_census_item("4,3")
    want = GOLDENS["census-q2-43"]["4,3"]
    doc = dict(want, irreducible_indices=want["irreducible_indices"][1:])
    attempted, failed, _ = workloads.score(item, {"raw": {"rc": 0, "doc": doc}}, GOLDENS)
    assert (attempted, failed) == (want["candidates_scanned"], 1)
    assert workloads.score(item, {"raw": {"rc": 1, "doc": None}}, GOLDENS)[1] == attempted
    assert workloads.score(item, {"error": "Infeasible: budget"}, GOLDENS)[1] == attempted
    item = workloads.construct_item(13, False)
    doc = dict(GOLDENS["families"][item["id"]], irreducible=None)
    assert workloads.score(item, {"raw": {"rc": 0, "doc": doc}}, GOLDENS) == (1, 1, 1)


def test_seed_draws_the_q3_44_slices():
    a = workloads.plan("census-q3-44", 1, GOLDENS)
    assert a == workloads.plan("census-q3-44", 1, GOLDENS)
    assert a != workloads.plan("census-q3-44", 2, GOLDENS)
    total = GOLDENS["census-q3-44"]["candidates_scanned"]
    irr = GOLDENS["census-q3-44"]["irreducible_indices"]
    found = 0
    for item in a:
        lo, hi = workloads.slice_bounds(total, *item["part"])
        found += sum(lo <= i < hi for i in irr)
    assert found == workloads.Q3_44_IRREDUCIBLES_PER_PASS


def test_benchmark_json_names_every_per_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        trace_layers.PER_LAYER
    )
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
