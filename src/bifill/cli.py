"""Command-line front end.

Subcommands:
  construct   build the minimal-bi-degree curve over GF(q) and verify it
  verify      run every check on a user-supplied form
  decompose   split a filling form into its two ruling summands
  census      classify a whole filling space
  scan        existence table of irreducible filling forms over a rectangle
  bound       the space-curve point bound as an exact fraction
  count       rational points over an extension field
  field-info  the canonical field of a given order

Exit codes: 0 success, 1 verification or expectation failure, 2 usage
error.  --json prints exactly one JSON document on stdout; timing and
diagnostics go to stderr so stdout stays machine-readable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .analysis import certify_smooth, is_abs_irreducible, smooth_proves_irreducible
from .bipoly import parse_bipoly
from .bounds import check_attainment, space_curve_bound
from .errors import (
    BifillError,
    Infeasible,
    NotFilling,
    SetupViolation,
)
from .families import construct
from .filling import decompose
from .geom import count_points
from .gf import field_for, parse_field_spec
from .search import census, min_bidegree_scan

_USAGE_EXIT = 2
_CHECK_EXIT = 1

# Errors that mean "the input itself was unusable", as opposed to a check
# that ran and failed.
_OUTCOME_ERRORS = (NotFilling, SetupViolation, Infeasible)


def _bidegree_arg(text):
    try:
        a, b = (int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A,B got {text!r}")
    return a, b


def _field_of(args):
    if args.field is not None:
        return parse_field_spec(args.field)
    return field_for(args.q)


def _poly_of(args, K):
    text = args.poly
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    return parse_bipoly(text, K)


def _emit(args, doc, human):
    if args.json:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        sys.stdout.write(human)


def _summarize(F):
    """The full battery: filling, smoothness, irreducibility, points,
    bound attainment.

    The smoothness certificate is taken once and reused as route A of
    absolute irreducibility (analysis.smooth_proves_irreducible); only
    when it does not apply does method B run, as "auto" would.  The
    points are counted once: F is filling when all (q+1)^2 rational pairs
    are on it.
    """
    cert = certify_smooth(F)
    if smooth_proves_irreducible(F, cert):
        irr, method = True, "A"
    else:
        try:
            res = is_abs_irreducible(F, method="B")
            irr, method = res.irreducible, res.method
        except Infeasible:
            irr, method = None, None
    report = check_attainment(F, irr)
    filling = report.observed == (F.field.order + 1) ** 2
    return filling, cert, irr, method, report


def _summary_doc(F, filling, cert, irr, method, report):
    return {
        "polynomial": F.text(),
        "bidegree": list(F.bidegree),
        "field": F.field.describe(),
        "filling": filling,
        "smooth": cert.verdict,
        "witness": cert.witness.to_json() if cert.witness else None,
        "irreducible": irr,
        "method": method,
        "points": report.observed,
        "bound": report.bound,
        "attained": report.attained,
    }


def _summary_text(F, filling, cert, irr, method, report):
    irr_text = "undecided" if irr is None else str(irr).lower()
    if method:
        irr_text += f" (method {method})"
    lines = [
        f"F = {F.text()}",
        f"bi-degree ({F.a},{F.b}) over GF({F.field.order})",
        f"filling: {str(filling).lower()}",
        f"smooth: {cert.verdict}",
        f"irreducible: {irr_text}",
        f"points: {report.observed}",
        f"bound: {report.bound} ({'attained' if report.attained else 'not attained'})",
    ]
    return "\n".join(lines) + "\n"


def cmd_construct(args):
    F = construct(args.q, transposed=args.transposed)
    filling, cert, irr, method, report = _summarize(F)
    doc = {
        "command": "construct",
        "q": args.q,
        "transposed": args.transposed,
        **_summary_doc(F, filling, cert, irr, method, report),
    }
    _emit(args, doc, _summary_text(F, filling, cert, irr, method, report))
    ok = filling and cert.verdict == "Smooth" and irr is True
    return 0 if ok else _CHECK_EXIT


def cmd_verify(args):
    K = _field_of(args)
    F = _poly_of(args, K)
    filling, cert, irr, method, report = _summarize(F)
    want = {
        "filling": args.expect_filling,
        "smooth": args.expect_smooth,
        "irreducible": args.expect_irreducible,
        "points": args.expect_points,
    }
    got = {
        "filling": filling,
        "smooth": cert.verdict == "Smooth",
        "irreducible": irr,
        "points": report.observed,
    }
    unmet = sorted(k for k, w in want.items() if w is not None and got[k] != w)
    doc = {
        "command": "verify",
        **_summary_doc(F, filling, cert, irr, method, report),
        "expectations": {k: w for k, w in want.items() if w is not None},
        "unmet": unmet,
    }
    text = _summary_text(F, filling, cert, irr, method, report)
    if unmet:
        text += f"unmet expectations: {', '.join(unmet)}\n"
    _emit(args, doc, text)
    return _CHECK_EXIT if unmet else 0


def cmd_decompose(args):
    K = _field_of(args)
    F = _poly_of(args, K)
    dec = decompose(F)
    ok = dec.verify(F)
    doc = {
        "command": "decompose",
        "polynomial": F.text(),
        "bidegree": list(F.bidegree),
        "field": K.describe(),
        "f": dec.f.text(),
        "g": dec.g.text(),
        "kx": dec.kx.text(),
        "ky": dec.ky.text(),
        "recombines": ok,
    }
    human = (
        f"F  = {F.text()}\n"
        f"f  = {dec.f.text()}\n"
        f"g  = {dec.g.text()}\n"
        f"KX = {dec.kx.text()}\n"
        f"KY = {dec.ky.text()}\n"
        f"recombines: {str(ok).lower()}\n"
    )
    _emit(args, doc, human)
    return 0 if ok else _CHECK_EXIT


def cmd_census(args):
    a, b = args.bidegree
    report = census(args.q, a, b, smooth=args.smooth)
    doc = {"command": "census", **report.to_json()}
    lines = [
        f"census q={args.q} bi-degree ({a},{b}): dimension {report.space_dimension}, "
        f"{report.candidates_scanned} candidates",
        f"irreducible: {report.n_irreducible}   reducible: {report.n_reducible}   "
        f"unknown: {report.n_unknown}",
    ]
    if args.smooth:
        lines.append(
            f"smooth: {report.n_smooth}   singular-but-irreducible: "
            f"{len(report.singular_irreducible_indices)}"
        )
    for F in report.exemplars:
        lines.append(f"exemplar: {F.text()}")
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0


def cmd_scan(args):
    a_max, b_max = args.max
    table = min_bidegree_scan(args.q, a_max, b_max)
    cells = [table[k] for k in sorted(table)]
    doc = {
        "command": "scan",
        "q": args.q,
        "max": [a_max, b_max],
        "cells": [c.to_json() for c in cells],
    }
    lines = [f"scan q={args.q} up to ({a_max},{b_max})"]
    for c in cells:
        verdict = {True: "yes", False: "no", None: "undecided"}[c.exists]
        extra = f" first at candidate {c.witness_index}" if c.witness_index is not None else ""
        lines.append(f"({c.a},{c.b}): {verdict} [{c.method}]{extra}")
    _emit(args, doc, "\n".join(lines) + "\n")
    return 0


def cmd_bound(args):
    floor = space_curve_bound(args.q, args.r, args.d)
    num = (args.q - 1) * (args.q ** (args.r + 1) - 1) * args.d
    den = args.q * (args.q**args.r - 1) - args.r * (args.q - 1)
    quot = Fraction(num, den)
    doc = {
        "command": "bound",
        "q": args.q,
        "r": args.r,
        "d": args.d,
        "numerator": num,
        "denominator": den,
        "quotient": f"{quot.numerator}/{quot.denominator}",
        "floor": floor,
    }
    human = (
        f"numerator   {num}\n"
        f"denominator {den}\n"
        f"quotient    {quot.numerator}/{quot.denominator}\n"
        f"floor       {floor}\n"
    )
    _emit(args, doc, human)
    return 0


def cmd_count(args):
    K = _field_of(args)
    F = _poly_of(args, K)
    pts = count_points(F, args.ext)
    doc = {
        "command": "count",
        "polynomial": F.text(),
        "bidegree": list(F.bidegree),
        "field": K.describe(),
        "ext": args.ext,
        "points": pts,
    }
    human = f"points over GF({K.order}^{args.ext}): {pts}\n"
    _emit(args, doc, human)
    return 0


def cmd_field_info(args):
    K = _field_of(args)
    doc = {
        "command": "field-info",
        "field": K.describe(),
        "elements": [K.text_of(x) for x in range(K.order)],
    }
    mod = ",".join(str(c) for c in K.modulus)
    human = (
        f"GF({K.order}) = GF({K.p}^{K.e}), modulus [{mod}]\n"
        f"elements: {' '.join(doc['elements'])}\n"
    )
    _emit(args, doc, human)
    return 0


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="one JSON document on stdout")

    top = argparse.ArgumentParser(prog="bifill", description=__doc__.split("\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common], help="build and verify the minimal curve")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--transposed", action="store_true")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", parents=[common], help="run every check on a form")
    p.add_argument("--poly", required=True, help="polynomial text, or @file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--q", type=int)
    g.add_argument("--field", help='e.g. "q=9" or "p=3,e=2,mod=[1,0,1]"')
    p.add_argument("--expect-filling", action="store_true", default=None)
    p.add_argument("--expect-smooth", action="store_true", default=None)
    p.add_argument("--expect-irreducible", action="store_true", default=None)
    p.add_argument("--expect-points", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("decompose", parents=[common], help="split into ruling summands")
    p.add_argument("--poly", required=True, help="polynomial text, or @file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--q", type=int)
    g.add_argument("--field")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("census", parents=[common], help="classify a filling space")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--bidegree", type=_bidegree_arg, required=True, metavar="A,B")
    p.add_argument("--smooth", action="store_true", help="certify irreducible candidates")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("scan", parents=[common], help="minimal bi-degree existence table")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--max", type=_bidegree_arg, required=True, metavar="A,B")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("bound", parents=[common], help="space-curve point bound")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("count", parents=[common], help="rational points over an extension")
    p.add_argument("--poly", required=True, help="polynomial text, or @file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--q", type=int)
    g.add_argument("--field")
    p.add_argument("--ext", type=int, default=1, help="extension degree m")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("field-info", parents=[common], help="canonical field data")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--q", type=int)
    g.add_argument("--field")
    p.set_defaults(func=cmd_field_info)

    return top


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except _OUTCOME_ERRORS as exc:
        print(f"bifill: {exc}", file=sys.stderr)
        return _CHECK_EXIT
    except BifillError as exc:
        print(f"bifill: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except OSError as exc:
        print(f"bifill: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    finally:
        print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
