"""The ``tqft`` command line front end.

Exit codes: 0 success, 2 usage error, 3 computation budget exceeded,
4 internal invariant violation.  Every budget is a fixed constant of the
module whose work it bounds.  Output is deterministic: identical inputs
produce byte-identical output.

``tqft verify`` runs the suites of ``tqftrec.verify``, which only it imports;
a suite fails on its first failing case (its witness) or an exception.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from fractions import Fraction

from . import amodel, bmodel, cutjoin, groups, intersect
from .exact import BudgetError, MultiRatFun
from .frobenius import AxiomError, FrobeniusAlgebra, omega_tqft, trivial_algebra
from .groups import GroupAxiomError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


class UsageError(ValueError):
    pass


# -- rendering ---------------------------------------------------------------


def _render(value, memo):
    """The JSON form of a report value.  ``memo`` maps the id of each
    MultiRatFun already rendered to its form: a report often repeats a few
    functions many times, and each is rendered once."""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, MultiRatFun):
        key = ("json", id(value))
        if key not in memo:
            memo[key] = value.to_json()
        return memo[key]
    if isinstance(value, dict):
        return {k: _render(v, memo) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_render(v, memo) for v in value]
    return value


def _render_flat(value, memo):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, MultiRatFun):
        key = ("flat", id(value))
        if key not in memo:
            memo[key] = str(value)
        return memo[key]
    if isinstance(value, (list, tuple)):
        return " ".join(str(_render_flat(v, memo)) for v in value)
    if isinstance(value, dict):
        return json.dumps(_render(value, memo), sort_keys=True)
    return value


def emit(report: dict, fmt: str) -> str:
    """Serialize a report with stable field order; rationals as "p/q".  The
    gates bound every value, so Python's cap on int digits is lifted meanwhile."""
    cap = getattr(sys, "get_int_max_str_digits", int)()  # 0: no cap, or none to lift
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        memo = {}  # the report is alive throughout, so the ids in it stay unique
        if fmt == "json":
            return json.dumps(_render(report, memo), indent=2) + "\n"
        if fmt == "csv":
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            rows = report.get("rows")
            if isinstance(rows, list) and rows and isinstance(rows[0], dict):
                header = list(dict.fromkeys(k for row in rows for k in row))
                writer.writerow(header)
                for row in rows:
                    writer.writerow([_render_flat(row.get(h), memo) for h in header])
            else:
                writer.writerow(["field", "value"])
                for key, value in report.items():
                    writer.writerow([key, _render_flat(value, memo)])
            return buf.getvalue()
        if fmt == "text":
            keys = [k for k in report if k != "rows"]
            if keys == ["value"]:
                return "%s\n" % _render_flat(report["value"], memo)
            lines = ["%s: %s" % (k, _render_flat(report[k], memo)) for k in keys]
            for row in report.get("rows", ()):
                lines.append(_render_flat(row, memo))
            return "\n".join(lines) + "\n"
        raise UsageError("unknown format %r (choose json, csv, or text)" % fmt)
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


# -- input parsing ------------------------------------------------------------


def _load_group_arg(source: str) -> groups.FiniteGroup:
    """A group from a builtin name, cycle notation, or the path of a JSON
    file holding a Cayley table ({"order": N, "table": [[...]]}) or a list
    of generator lines.  Any fault in such a file is a usage error."""
    where = "group file %s: " % source if os.path.isfile(source) else ""
    try:
        if where:
            with open(source) as fh:
                source = json.load(fh)
        return groups.load_group(source)
    except (OSError, ValueError, TypeError, KeyError, RecursionError, GroupAxiomError) as exc:
        raise UsageError(where + str(exc))


def parse_decoration(token: str, algebra: FrobeniusAlgebra):
    """A decoration is a class label like "[1]" or a coefficient vector "1,0"."""
    token = token.strip()
    if token in algebra.labels:
        return algebra.basis(algebra.labels.index(token))
    if "," in token or "/" in token or token.lstrip("-").isdigit():
        parts = [p.strip() for p in token.split(",")]
        if len(parts) != algebra.dim:
            raise UsageError(
                "decoration %r has %d coefficients, need %d"
                % (token, len(parts), algebra.dim)
            )
        try:
            coeffs = [Fraction(p) for p in parts]
        except (ValueError, ZeroDivisionError):
            raise UsageError("decoration %r is not a coefficient vector" % token)
        return algebra.element(coeffs)
    raise UsageError(
        "unknown decoration %r; class labels are %s" % (token, list(algebra.labels))
    )


def _decorations(tokens, algebra: FrobeniusAlgebra, n: int):
    if not tokens:
        return [algebra.unit_element()] * n
    if len(tokens) == 1 and n > 1:
        tokens = tokens * n
    if len(tokens) != n:
        raise UsageError("need %d decorations, got %d" % (n, len(tokens)))
    return [parse_decoration(t, algebra) for t in tokens]


def _algebra_from_args(args) -> FrobeniusAlgebra:
    if getattr(args, "group", None):
        return groups.orbifold_frobenius(_load_group_arg(args.group))
    return trivial_algebra()


# -- subcommands ---------------------------------------------------------------


def cmd_group_info(args) -> dict:
    G = _load_group_arg(args.group)
    cd = groups.conjugacy(G)
    return {
        "order": G.order,
        "elements": list(G.names),
        "classes": list(cd.class_names),
        "class_sizes": [len(c) for c in cd.classes],
        "centralizer_orders": list(cd.centralizer_orders),
    }


def cmd_frobenius(args) -> dict:
    A = _algebra_from_args(args)
    report = A.to_json()
    report["counit"] = [str(c) for c in A.counit]
    report["euler"] = [str(c) for c in A.euler]
    return report


def cmd_omega(args) -> dict:
    G = _load_group_arg(args.group)
    cd = groups.conjugacy(G)
    A = groups.orbifold_frobenius(G, cd)
    # one token stands for every boundary, for both methods
    tokens = list(args.decor or [])
    if len(tokens) == 1:
        tokens *= args.n
    vs = _decorations(tokens, A, args.n)
    report = {
        "group": args.group,
        "g": args.g,
        "n": args.n,
        "decor": tokens or ["[1]"] * args.n,
    }
    if args.method in ("formula", "both"):
        report["formula"] = omega_tqft(A, args.g, args.n, vs)
    if args.method in ("brute", "both"):
        indices = []
        for token in report["decor"]:
            token = token.strip()
            if token not in A.labels:
                raise UsageError(
                    "brute counting needs class-label decorations, got %r" % token
                )
            indices.append(A.labels.index(token))
        report["brute"] = groups.omega_brute(G, args.g, indices, cd=cd)
    if args.method == "both":
        report["match"] = report["formula"] == report["brute"]
    return report


def _catalan_common(args, dessin: bool) -> dict:
    mu = tuple(args.mu)
    A = _algebra_from_args(args)
    vs = _decorations(args.decor, A, args.n)
    # the table that answers, over the trivial algebra when no group is given
    table = cutjoin.shared(amodel.CatalanTable, A)
    if args.cache and os.path.exists(args.cache):
        _load_cache(table, args.cache)
    if dessin:
        value = amodel.twisted_dessin(args.g, args.n, mu, A, vs)
    else:
        value = table.twisted(args.g, mu, vs, args.n)
    if args.cache:
        _save_cache(table, args.cache)
    return {"value": value}


def _load_cache(table, path: str) -> None:
    """Fill the table from a cache file.  A file that cannot be read or
    fails any check of ``load_json`` is ignored, and later rewritten."""
    try:
        with open(path) as fh:
            table.load_json(json.load(fh))
    except (OSError, ValueError, TypeError, KeyError, RecursionError, ZeroDivisionError) as exc:
        sys.stderr.write("ignoring cache file %s: %s\n" % (path, exc))


def _save_cache(table, path: str) -> None:
    """Write the table to a temporary file beside ``path``, then move it
    into place, so a reader never sees a partly written cache."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w") as fh:
            json.dump(table.to_json(), fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except OSError as exc:
        raise UsageError("cannot write cache file %s: %s" % (path, exc))
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def cmd_catalan(args) -> dict:
    return _catalan_common(args, dessin=False)


def cmd_dessin(args) -> dict:
    return _catalan_common(args, dessin=True)


def cmd_wgn(args) -> dict:
    if args.group:
        A = groups.orbifold_frobenius(_load_group_arg(args.group))
        tw = bmodel.twisted_wgn(args.g, args.n, A)
        # the values are a few multiples of one function: convert each once
        converted = {}
        rows = []
        for idx in sorted(tw.values):
            value = tw.values[idx]
            if value not in converted:
                converted[value] = bmodel.convert_frame(value, args.n, args.coords)
            fn = converted[value]
            rows.append(
                {
                    "decor": [A.labels[i] for i in idx],
                    "coords": args.coords,
                    "function": fn,
                }
            )
        return {"g": args.g, "n": args.n, "coords": args.coords, "rows": rows}
    fn = bmodel.convert_frame(bmodel.wgn(args.g, args.n), args.n, args.coords)
    return {"g": args.g, "n": args.n, "coords": args.coords, "function": fn}


def cmd_correlator(args) -> dict:
    A = _algebra_from_args(args)
    vs = _decorations(args.decor, A, args.n)
    return {"value": intersect.twisted_correlator(args.g, args.n, tuple(args.k), A, vs)}


# -- verify ---------------------------------------------------------------------


def cmd_verify(args) -> dict:
    from . import verify  # the check catalogue; no other command needs it

    rows = []
    for name, checks in verify.SUITES:
        row = {"suite": name, "result": "pass"}
        rows.append(row)
        try:  # the first failing case is the witness
            case, got, want = next(((case, got, want) for check in checks
                                    for case, got, want in check(args.level) if got != want),
                                   (None, None, None))
        except BudgetError:
            raise
        except Exception as exc:  # a crashing suite fails, and says why
            row.update(result="FAIL", error="%s: %s" % (type(exc).__name__, exc))
            continue
        if case is not None:  # a predicate's case (want True) reads as its failure
            row.update(result="FAIL", witness=case if want is True else "%s: %s != %s" % (
                case, _render_flat(got, {}), _render_flat(want, {})))
    return {"level": args.level, "all_passed": all(r["result"] == "pass" for r in rows),
            "rows": rows}


# -- argument plumbing ------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tqft",
        description="Exact counting recursions twisted by finite-group TQFT data.",
    )
    parser.add_argument(
        "--format", choices=("json", "csv", "text"), default="text",
        help="output format (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("group-info", help="group order, classes, centralizers")
    p.add_argument("--group", required=True)
    p.set_defaults(func=cmd_group_info)

    p = sub.add_parser("frobenius", help="class-algebra tensors")
    p.add_argument("--group")
    p.set_defaults(func=cmd_frobenius)

    p = sub.add_parser("omega", help="surface amplitude by formula and/or counting")
    p.add_argument("--group", required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--decor", action="append")
    p.add_argument("--method", choices=("formula", "brute", "both"), default="formula")
    p.set_defaults(func=cmd_omega)

    for name, fn in (("catalan", cmd_catalan), ("dessin", cmd_dessin)):
        p = sub.add_parser(name, help="%s count, optionally decorated" % name)
        p.add_argument("--g", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--mu", type=int, nargs="+", required=True)
        p.add_argument("--group")
        p.add_argument("--decor", action="append")
        p.add_argument("--cache")
        p.set_defaults(func=fn)

    p = sub.add_parser("wgn", help="stable coefficient function of the recursion")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--coords", choices=("t", "x", "z"), default="t")
    p.add_argument("--group")
    p.set_defaults(func=cmd_wgn)

    p = sub.add_parser("correlator", help="psi-class correlator, optionally decorated")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, nargs="+", required=True)
    p.add_argument("--group")
    p.add_argument("--decor", action="append")
    p.set_defaults(func=cmd_correlator)

    p = sub.add_parser("verify", help="run the module invariant suites")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        report = args.func(args)
        sys.stdout.write(emit(report, args.format))
    except BudgetError as exc:
        sys.stderr.write("budget exceeded: %s\n" % exc)
        return EXIT_BUDGET
    except (AxiomError, GroupAxiomError, AssertionError) as exc:
        sys.stderr.write("internal invariant violation: %s\n" % exc)
        return EXIT_INTERNAL
    except (ValueError, TypeError, LookupError) as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return EXIT_USAGE
    if args.command == "verify" and not report["all_passed"]:
        return EXIT_INTERNAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
