"""Command-line front end.

verify runs registered claims (one or all) and reports pass/fail;
search, curves, and torsion-bound expose the underlying computations
directly.  Exit codes: 0 success (for verify: nothing failed), 1 a claim
failed, 2 a usage, input or computation error, or an unexpected crash; a
crash prints one `error:` line, and the traceback too under --debug.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from collections import Counter

from .claims import CLAIM_IDS, Config, claim_description, run_all, run_claim
from .errors import IsogateError
from .gatefinder import find_gate_groups
from .matgroup import format_matrix
from .modcurve import named_curve, torsion_bound_cyclotomic
from .ratcurves import disc_square_class_of_j, parse_rational_expr


def _check_output_path(path) -> None:
    """Refuse a --json path that cannot be written, before any work starts.

    The file itself is neither created nor truncated here; that happens
    only when the report is written.
    """
    if not path:
        return
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        raise FileNotFoundError(f"--json {path}: no directory {folder}")
    if os.path.isdir(path):
        raise IsADirectoryError(f"--json {path}: is a directory")
    if not os.access(path if os.path.exists(path) else folder, os.W_OK):
        raise PermissionError(f"--json {path}: not writable")


def _write_json(path: str, payload) -> None:
    """The one JSON writer: sorted keys, two-space indent, a final newline."""
    text = json.dumps(payload, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def _cmd_verify(args) -> int:
    if args.all and (args.claim or args.r):
        given = "--claim" if args.claim else "--r"
        print(f"verify --all takes no {given}: it runs every claim at its "
              f"default moduli", file=sys.stderr)
        return 2
    _check_output_path(args.json)
    config = Config.from_json(args.config) if args.config else Config()
    if args.all:
        reports = run_all(config)
        width = max(len(rep.claim_id) for rep in reports)
        for rep in reports:
            print(f"{rep.claim_id:<{width}}  {rep.status:<12} {rep.elapsed_ms:>7} ms")
        tally = Counter(rep.status for rep in reports)
        print(f"{len(reports)} claims: {tally['pass']} pass, {tally['fail']} fail, "
              f"{tally['inconclusive']} inconclusive")
        ok = all(rep.status != "fail" for rep in reports)
    elif not args.claim:
        print("verify needs --claim <id> or --all", file=sys.stderr)
        return 2
    else:
        moduli = tuple(args.r) if args.r else None
        report = run_claim(args.claim, moduli=moduli, config=config)
        print(f"{report.claim_id}: {claim_description(report.claim_id)}")
        print(f"status: {report.status}  ({report.elapsed_ms} ms)")
        if report.status != "pass":
            print("expected:", json.dumps(report.expected, sort_keys=True))
            print("computed:", json.dumps(report.computed, sort_keys=True))
        reports, ok = (report,), report.status == "pass"
    if args.json:
        _write_json(args.json, [rep.to_dict() for rep in reports])
    return 0 if ok else 1


def _cmd_search(args) -> int:
    _check_output_path(args.json)
    result = find_gate_groups(args.r)
    payload = {
        "r": result.r,
        "classes": [
            {
                "order": group.order,
                "index": index,
                "generators": [format_matrix(g, args.r) for g in group.generators],
            }
            for group, index in zip(result.groups, result.indices)
        ],
        "plus_minus_pairs": [list(p) for p in result.plus_minus_pairs],
    }
    if args.json:
        _write_json(args.json, payload)
    print(f"r={result.r}: {len(result.groups)} conjugacy classes")
    for i, entry in enumerate(payload["classes"]):
        print(f"  class {i}: order {entry['order']}, index {entry['index']}")
        for gen in entry["generators"]:
            print(f"    {gen}")
    if result.plus_minus_pairs:
        for i, j in result.plus_minus_pairs:
            print(f"  class {i} = <-I, class {j}>")
    return 0


def _cmd_disc_class(args) -> int:
    j = parse_rational_expr(args.j)
    print(disc_square_class_of_j(j))
    return 0


def _cmd_torsion_bound(args) -> int:
    curve = named_curve(args.curve)
    report = torsion_bound_cyclotomic(curve, args.r)
    print(f"{report.curve_label} over Q(zeta_{report.r})")
    for q, n in zip(report.primes, report.counts):
        print(f"  q={q}: {n} points")
    print(f"gcd bound: {report.gcd_bound}")
    print(f"structure bound: {report.structure_bound}")
    print(f"rational points found: {report.rational_points_found}")
    print(f"note: {report.caveat}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isogate",
        description="recompute and verify the finite checks behind "
        "r-isogenies of rational-j elliptic curves over cyclotomic fields",
    )
    parser.add_argument("--debug", action="store_true",
                        help="print the traceback of an error")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run one claim or the whole registry")
    verify.add_argument("--claim", choices=CLAIM_IDS, metavar="ID",
                        help="claim id, one of: " + ", ".join(CLAIM_IDS))
    verify.add_argument("--all", action="store_true", help="run every claim")
    verify.add_argument("--r", type=int, nargs="+",
                        help="restrict to these moduli (claims that take them)")
    verify.add_argument("--json", metavar="PATH", help="also write a JSON report")
    verify.add_argument("--config", metavar="PATH",
                        help="JSON file overriding prime lists and bounds")
    verify.set_defaults(func=_cmd_verify)

    search = sub.add_parser("search", help="run a search directly")
    search_sub = search.add_subparsers(dest="target", required=True)
    gate = search_sub.add_parser("gate-groups",
                                 help="proper applicable subgroups with "
                                 "line-fixing determinant-one part")
    gate.add_argument("--r", type=int, required=True)
    gate.add_argument("--json", metavar="PATH")
    gate.set_defaults(func=_cmd_search)

    curves = sub.add_parser("curves", help="invariant computations")
    curves_sub = curves.add_subparsers(dest="target", required=True)
    disc = curves_sub.add_parser("disc-class",
                                 help="discriminant square class of a j-invariant")
    disc.add_argument("--j", required=True, metavar="EXPR",
                      help="rational j, plain or factored like -3^3*5^3")
    disc.set_defaults(func=_cmd_disc_class)

    torsion = sub.add_parser("torsion-bound",
                             help="reduction-based torsion bound report")
    torsion.add_argument("--curve", required=True, metavar="LABEL",
                         help='curve label such as "X0(14)"')
    torsion.add_argument("--r", type=int, required=True)
    torsion.set_defaults(func=_cmd_torsion_bound)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        if args.debug:
            traceback.print_exc()
        # a path that cannot be read or written is bad input, not a crash
        if isinstance(exc, (IsogateError, ValueError, KeyError, OSError)):
            # str() of a KeyError quotes its message
            message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
            print(f"error: {message}", file=sys.stderr)
        else:
            # a crash is not a claim failure, so it must not exit 1
            hint = "" if args.debug else " (rerun with --debug for the traceback)"
            print(f"error: unexpected {type(exc).__name__}: {exc}{hint}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
