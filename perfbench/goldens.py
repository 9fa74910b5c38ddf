"""Record the verdict goldens the benchmark checks every result against.

    python3 perfbench/goldens.py            # writes perfbench/goldens.json

Run from the repository root. It runs every item any seed can draw, through
the same calls the benchmark makes, and keeps only the verdict fields
(workloads.verdict): the full census(3, 4, 4) (about ten minutes), both
census-q2-43 reports, construct for every Q in both orientations, and the
two point counts. It refuses to write when a fixed point of the project's
goldens does not hold: census(3, 4, 4) = 264 / 9577 / 0 with construct(3)
at candidate 2219, all irreducibles inside the drawn range.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from bifill.families import construct  # noqa: E402
from bifill.search import candidate_index_of, census, filling_space_basis  # noqa: E402


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _verdict(item):
    raw = workloads.run_item(item)
    if item["call"] == "cli" and raw["rc"] != 0:
        raise SystemExit(f"{item['id']}: exit code {raw['rc']}")
    return workloads.verdict(item, raw)


def census_q3_44():
    q, a, b = workloads.Q3_44
    rep = census(q, a, b)
    k = candidate_index_of(construct(3), filling_space_basis(q, a, b))
    lo, hi = workloads.Q3_44_RANGE
    got = (rep.candidates_scanned, rep.n_irreducible, rep.n_reducible, rep.n_unknown, k)
    if got != (9841, 264, 9577, 0, 2219):
        raise SystemExit(f"census(3,4,4) fixed points do not hold: {got}")
    if not all(lo <= i <= hi for i in rep.irreducible_indices):
        raise SystemExit("an irreducible of census(3,4,4) lies outside the drawn range")
    return {
        "candidates_scanned": rep.candidates_scanned,
        "n_irreducible": rep.n_irreducible,
        "n_reducible": rep.n_reducible,
        "n_unknown": rep.n_unknown,
        "irreducible_indices": list(rep.irreducible_indices),
        "construct3_index": k,
    }


def families():
    for q, text in workloads.CONSTRUCT_TEXT.items():
        if construct(q).text() != text:
            raise SystemExit(f"construct({q}) no longer prints as workloads.CONSTRUCT_TEXT")
    out = {}
    for q in workloads.FAMILY_QS:
        for transposed in (False, True):
            item = workloads.construct_item(q, transposed)
            out[item["id"]] = _verdict(item)
    for q in sorted(workloads.COUNT_EXT):
        item = workloads.count_item(q)
        out[item["id"]] = _verdict(item)
    return out


def main():
    doc = {
        "recorded_at_commit": _commit(),
        "python": platform.python_version(),
        "census-q2-43": {
            b: _verdict(workloads.cli_census_item(b)) for b in workloads.Q2_BIDEGREES
        },
        "families": families(),
        "census-q3-44": census_q3_44(),
    }
    out = os.path.join(HERE, "goldens.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
