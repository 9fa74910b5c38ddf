"""The three benchmark workloads: their inputs, how the seed draws them, and
how each result is scored against the goldens.

A plan is a list of items. Every item is one call into bifill:

  {"id": ..., "call": "census", "q": 3, "bidegree": [4, 4], "part": [k, n]}
      bifill.search.census(q, a, b, part=(k, n))
  {"id": ..., "call": "cli", "argv": [...]}
      bifill.cli.main(argv), with stdout captured and parsed as JSON

The child process runs the items (run_pass) and returns their raw results;
the parent scores them (score). Scoring compares verdict fields only, so fields
added to a report later do not count as failures.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time

WORKLOADS = ("census-q3-44", "census-q2-43", "families")

# -- census-q3-44 ----------------------------------------------------------------
# census(3, 4, 4) has 9841 candidates. All 264 irreducibles lie in
# [2219, 6556]; a pass is slices drawn from that range. An irreducible costs
# about two thousand reducibles, so every pass has the same number of slices
# and of golden irreducibles, and its work stays the same whatever the seed.
# A pass is short (about 5 s) so that a run holds several passes and uses
# all of its --seconds.
Q3_44 = (3, 4, 4)
Q3_44_RANGE = (2219, 6556)
Q3_44_PARTS = 615  # census(..., part=(k, 615)): 16 or 17 candidates a slice
Q3_44_SLICES_PER_PASS = 4
Q3_44_IRREDUCIBLES_PER_PASS = 2

# -- census-q2-43 ----------------------------------------------------------------
Q2_BIDEGREES = ("4,3", "3,4")

# -- families ----------------------------------------------------------------------
FAMILY_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
# count --ext m on construct(q): m makes the dense enumeration take seconds.
COUNT_EXT = {2: 10, 3: 6}
# construct(2) and construct(3) as bifill prints them; goldens.py checks that
# these still match construct(q).text().
CONSTRUCT_TEXT = {
    2: "X0^4*Y0^2*Y1 + X0^4*Y0*Y1^2 + X0^3*X1*Y0^3 + X0^2*X1^2*Y0^3"
       " + X0^2*X1^2*Y0^2*Y1 + X0^2*X1^2*Y0*Y1^2 + X0^2*X1^2*Y1^3"
       " + X0*X1^3*Y1^3 + X1^4*Y0^2*Y1 + X1^4*Y0*Y1^2",
    3: "X0^4*Y0^3*Y1 + 2*X0^4*Y0*Y1^3 + X0^3*X1*Y0^4 + X0^3*X1*Y1^4"
       " + 2*X0*X1^3*Y0^4 + X0*X1^3*Y0^3*Y1 + 2*X0*X1^3*Y0*Y1^3"
       " + 2*X0*X1^3*Y1^4 + 2*X1^4*Y0^3*Y1 + X1^4*Y0*Y1^3",
}

CENSUS_FIELDS = (
    "q", "bidegree", "space_dimension", "candidates_scanned", "n_irreducible",
    "n_reducible", "n_unknown", "n_smooth", "irreducible_indices",
    "singular_irreducible_indices",
)
CONSTRUCT_FIELDS = ("bidegree", "filling", "smooth", "irreducible", "points", "attained")


def slice_bounds(total, k, n):
    """The candidate range census(part=(k, n)) scans."""
    return k * total // n, (k + 1) * total // n


def census_item(k):
    q, a, b = Q3_44
    return {"id": f"census q=3 (4,4) part={k}/{Q3_44_PARTS}", "call": "census",
            "q": q, "bidegree": [a, b], "part": [k, Q3_44_PARTS]}


def cli_census_item(bidegree):
    return {"id": f"census q=2 ({bidegree})", "call": "cli",
            "argv": ["census", "--q", "2", "--bidegree", bidegree, "--smooth", "--json"]}


def construct_item(q, transposed):
    argv = ["construct", "--q", str(q)] + (["--transposed"] if transposed else []) + ["--json"]
    return {"id": f"construct q={q}" + (" transposed" if transposed else ""),
            "call": "cli", "argv": argv}


def count_item(q):
    m = COUNT_EXT[q]
    return {"id": f"count construct({q}) ext={m}", "call": "cli",
            "argv": ["count", "--q", str(q), "--poly", CONSTRUCT_TEXT[q],
                     "--ext", str(m), "--json"]}


def plan(workload, seed, goldens):
    """The items of one pass of a workload; the same seed gives the same
    items in the same order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census-q3-44":
        g = goldens["census-q3-44"]
        total, irr = g["candidates_scanned"], g["irreducible_indices"]
        lo, hi = Q3_44_RANGE
        n_irr = {}
        for k in range(Q3_44_PARTS):
            s_lo, s_hi = slice_bounds(total, k, Q3_44_PARTS)
            if s_hi > lo and s_lo <= hi:
                n_irr[k] = sum(s_lo <= i < s_hi for i in irr)
        for _ in range(10000):
            ks = rng.sample(sorted(n_irr), Q3_44_SLICES_PER_PASS)
            if sum(n_irr[k] for k in ks) == Q3_44_IRREDUCIBLES_PER_PASS:
                return [census_item(k) for k in ks]
        raise ValueError("no census-q3-44 draw has the wanted irreducible count")
    if workload == "census-q2-43":
        order = list(Q2_BIDEGREES)
        rng.shuffle(order)
        return [cli_census_item(b) for b in order]
    if workload == "families":
        items = [construct_item(q, rng.random() < 0.5) for q in FAMILY_QS]
        items += [count_item(q) for q in sorted(COUNT_EXT)]
        rng.shuffle(items)
        return items
    raise ValueError(f"unknown workload {workload!r}")


def verdict(item, raw):
    """Verdict fields of one raw result (see run_item)."""
    if item["call"] == "census":
        return {k: raw[k] for k in ("candidates_scanned", "n_unknown", "irreducible_indices")}
    doc = raw["doc"]
    command = item["argv"][0]
    if command == "census":
        return {k: doc[k] for k in CENSUS_FIELDS}
    if command == "construct":
        return {k: doc[k] for k in CONSTRUCT_FIELDS}
    if command == "count":
        return {"points": doc["points"]}
    raise ValueError(f"no verdict for {command!r}")


def golden_of(item, goldens):
    """(expected verdict fields, items attempted, candidates classified)."""
    if item["call"] == "census":
        g = goldens["census-q3-44"]
        lo, hi = slice_bounds(g["candidates_scanned"], *item["part"])
        irr = [i for i in g["irreducible_indices"] if lo <= i < hi]
        want = {"candidates_scanned": hi - lo, "n_unknown": 0, "irreducible_indices": irr}
        return want, hi - lo, hi - lo
    command = item["argv"][0]
    if command == "census":
        want = goldens["census-q2-43"][item["argv"][4]]
        return want, want["candidates_scanned"], want["candidates_scanned"]
    if command == "construct":
        return goldens["families"][item["id"]], 1, 1
    return goldens["families"][item["id"]], 1, 0


def _symdiff(a, b):
    return len(set(a or ()) ^ set(b or ()))


def score(item, result, goldens):
    """(attempted, failed, candidates) for one item's child result.

    An item is one candidate verdict for the census workloads and one curve's
    battery or one point count for families. It fails on a verdict that
    differs from the golden, an unknown, an exception or a nonzero exit code;
    a census call that fails as a whole fails every candidate it covers."""
    want, attempted, candidates = golden_of(item, goldens)
    if result is None or "error" in result:
        return attempted, attempted, candidates
    raw = result["raw"]
    if item["call"] == "cli" and raw["rc"] != 0:
        return attempted, attempted, candidates
    try:
        got = verdict(item, raw)
    except (KeyError, TypeError):
        return attempted, attempted, candidates
    if got == want:
        return attempted, 0, candidates
    if attempted == 1:
        return 1, 1, candidates
    wrong = (_symdiff(got.get("irreducible_indices"), want["irreducible_indices"])
             + _symdiff(got.get("singular_irreducible_indices"),
                        want.get("singular_irreducible_indices"))
             + (got.get("n_unknown") or 0))
    return attempted, min(attempted, max(wrong, 1)), candidates


# -- running items (in the child) ------------------------------------------------

def run_item(item):
    """Raw result of one item: census verdict fields, or the CLI exit code
    and parsed JSON document."""
    import bifill.cli
    import bifill.search

    if item["call"] == "census":
        a, b = item["bidegree"]
        rep = bifill.search.census(item["q"], a, b, part=tuple(item["part"]))
        return {
            "candidates_scanned": rep.candidates_scanned,
            "n_unknown": rep.n_unknown,
            "irreducible_indices": list(rep.irreducible_indices),
        }
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = bifill.cli.main(item["argv"])
    text = out.getvalue()
    return {"rc": rc, "doc": json.loads(text) if text else None}


def run_pass(items):
    """Run every item in order; an item that raises is recorded as an error
    and the pass goes on. Returns (results, wall seconds of the pass)."""
    results = []
    t0 = time.perf_counter()
    for item in items:
        t = time.perf_counter()
        try:
            res = {"raw": run_item(item)}
        except Exception as exc:  # one failing item must not end the pass
            res = {"error": f"{type(exc).__name__}: {exc}"}
        res["id"] = item["id"]
        res["seconds"] = time.perf_counter() - t
        results.append(res)
    return results, time.perf_counter() - t0
