"""Command-line front end: expand series, run verification, emit tables.

Output is byte-deterministic for fixed arguments: JSON is written with
sorted keys and compact separators, floats are rounded to 12 significant
digits before serialization, and all text is UTF-8 with LF endings.

Exit codes: 0 success, 1 verification failure (or a zero scan that
lost its bracketing), 2 usage error, including out-of-range arguments,
a bound too large to allocate, an ``--out`` path that cannot be
written, a flag that the named ``verify`` suite or ``tables`` kind does
not take, and an abbreviated flag (``--n`` for ``--n-max``).  Each
suite and each kind has its own parser, which reports a flag it does
not take under its own usage line.

Only :mod:`qmodular.qseries` is imported up front; each command imports
the modules it runs, so ``expand euler-E`` loads nothing else.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional, Sequence

from .qseries import QSeries, euler_product, to_json_obj

__all__ = ["main", "build_parser"]


def _check_bounds(args) -> None:
    """Reject the out-of-range values that argparse lets through."""
    for name in ("order", "n_max", "count"):
        v = getattr(args, name, None)
        if v is not None and v < 1:
            raise ValueError(f"{name} must be positive, got {v}")


def _fmt_float(x: float) -> float:
    """Round to 12 significant digits so reruns are byte-identical."""
    return float(format(x, ".12g"))


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _cell(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return "" if v is None else str(v)


def _dump_text(header: list[str], rows: list[dict], sep: str) -> str:
    """The header, then one line per row of its cells in header order."""
    lines = [sep.join(header)]
    lines += [sep.join(_cell(row[k]) for k in header) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write --out {out}: {exc.strerror}") from None


# -- expand ---------------------------------------------------------------------


def _expand_object(name: str, order: int) -> QSeries:
    if name in ("eta", "delta", "e12"):
        from . import forms

        return {"eta": forms.eta, "delta": forms.delta, "e12": forms.eisenstein_e12}[name](order)
    if name == "mock-f":
        from . import theta_partitions

        return theta_partitions.mock_theta_f(order)
    family, _, index = name.partition("-")
    if family not in ("theta", "euler"):
        raise ValueError(f"unknown object {name!r}")
    digits = index.removeprefix("-")
    # int() would also take "1_0", "+3", " 2" and non-ASCII digits
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"malformed object {name!r}: {index!r} is not an integer")
    k = int(index)
    if family == "euler":
        return euler_product(k, order)
    from . import theta_partitions

    return theta_partitions.theta_diagonal(k, order)


def _cmd_expand(args) -> int:
    f = _expand_object(args.object, args.order)
    if args.format == "json":
        _emit(_dump_json(to_json_obj(f)), args.out)
    else:
        rows = [{"exponent": f.offset + j, "coefficient": c} for j, c in enumerate(f.coeffs)]
        _emit(_dump_text(["exponent", "coefficient"], rows, "\t"), args.out)
    return 0


# -- verify ---------------------------------------------------------------------


def _cmd_verify(args) -> int:
    from . import forms, verify

    if args.inject_tau_fault:
        forms.inject_tau_fault()
    checks = []
    for suite_name in verify.SUITES if args.suite == "all" else [args.suite]:
        # each suite parameter is named after the verify flag that sets it
        flags = {k: getattr(args, k) for k in _VERIFY_FLAGS[suite_name]}
        flags = {k: v for k, v in flags.items() if v is not None}
        for rep in verify.SUITES[suite_name](**flags):
            if len(rep.violations) > 20:
                shown = f"20 of {len(rep.violations)} violations shown"
                print(f"verify {suite_name}: {rep.check}: {shown}", file=sys.stderr)
            obj = dict(rep.params, suite=suite_name, check=rep.check, ok=rep.ok)
            obj["violations"] = list(rep.violations[:20])
            checks.append(obj)
    payload = {"suite": args.suite, "checks": checks, "ok": all(c["ok"] for c in checks)}
    _emit(_dump_json(payload), args.out)
    return 0 if payload["ok"] else 1


# -- tables ----------------------------------------------------------------------
#
# Each table is a header and one dict per row, keyed by the header; floats
# are already rounded by _fmt_float.  JSON dumps the rows as they are, and
# tsv/csv print them through _dump_text, the one text writer, which
# `expand --format tsv` uses too.


def _table_rank(args) -> tuple[list[str], list[dict]]:
    from . import theta_partitions

    table = theta_partitions.rank_table(args.n_max)
    return ["n", "m", "count"], [{"n": n, "m": m, "count": c} for n, m, c in table.rows()]


def _table_zeros(args) -> tuple[list[str], list[dict]]:
    from . import lseries

    zeros = lseries.zeta_zero_spacings(args.count)
    return ["n", "gamma", "spacing"], [
        {"n": n, "gamma": _fmt_float(g), "spacing": None if sp is None else _fmt_float(sp)}
        for n, g, sp in zeros.rows()
    ]


def _table_spacings(args) -> tuple[list[str], list[dict]]:
    # the zeros rows without gamma, and without the last row, which has no spacing
    rows = _table_zeros(args)[1][:-1]
    return ["n", "spacing"], [{"n": row["n"], "spacing": row["spacing"]} for row in rows]


def _s_value_list(text: str) -> list[float]:
    """Parse ``--s-values``: a non-empty comma list of finite s in (0, 12)."""
    svals = []
    for tok in text.split(","):
        if not tok.strip():
            continue
        try:
            s = float(tok)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {tok.strip()!r}") from None
        if not 0.0 < s < 12.0:  # also rejects nan and inf
            raise argparse.ArgumentTypeError(
                f"s must be a finite number in (0, 12), got {tok.strip()}"
            )
        svals.append(s)
    if not svals:
        raise argparse.ArgumentTypeError("needs at least one s value")
    return svals


def _table_lvalues(args) -> tuple[list[str], list[dict]]:
    from . import lseries

    lams = [lseries.completed_lambda_integral(s) for s in args.s_values]
    return ["s", "value", "err"], [
        {
            "s": _fmt_float(lam.s),
            "value": _fmt_float(lam.value),
            "err": _fmt_float(lam.quadrature_error),
        }
        for lam in lams
    ]


def _table_shadow(args) -> tuple[list[str], list[dict]]:
    from . import geometry

    # the samples depend only on r_d, e, f and the grid, so r_a stays fixed
    term = geometry.torus_term(1.0, args.r_d, args.e, args.f, args.grid)
    return ["theta", "re", "im"], [
        {
            "theta": _fmt_float(2.0 * math.pi * j / args.grid),
            "re": _fmt_float(sample.real),
            "im": _fmt_float(sample.imag),
        }
        for j, sample in enumerate(term.shadow_samples)
    ]


_TABLES = {
    "rank": _table_rank,
    "zeros": _table_zeros,
    "spacings": _table_spacings,
    "lvalues": _table_lvalues,
    "shadow": _table_shadow,
}


def _cmd_tables(args) -> int:
    header, rows = _TABLES[args.table](args)
    if args.format == "json":
        _emit(_dump_json(rows), args.out)
    else:
        _emit(_dump_text(header, rows, "," if args.format == "csv" else "\t"), args.out)
    return 0


# -- parser -----------------------------------------------------------------------

# the parameters of each suite in verify.SUITES, in order, spelled out so
# that parsing imports no suite; each is named after the flag that sets it
_VERIFY_FLAGS = {
    "tau": ["n_max"],
    "hecke": ["order"],
    "rank": ["n_max"],
    "theta": ["order"],
    "lfunc": ["count"],
    "geometry": [],
}
_VERIFY_FLAG_TYPES = {"n_max": int, "order": int, "count": int}


def build_parser() -> argparse.ArgumentParser:
    # Python 3.11 does not pass allow_abbrev down, so every parser sets it
    parser = argparse.ArgumentParser(
        prog="qmodular",
        description="Exact q-expansions, verification batteries, and numeric tables.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="print a named q-expansion", allow_abbrev=False)
    p_expand.add_argument(
        "object",
        help="eta | delta | e12 | mock-f | theta-K | euler-E (K, E integers)",
    )
    p_expand.add_argument("--order", type=int, default=10)
    p_expand.add_argument("--format", choices=["json", "tsv"], default="json")
    p_expand.add_argument("--out", default=None)
    p_expand.set_defaults(fn=_cmd_expand, parser=p_expand)

    p_verify = sub.add_parser("verify", help="run a verification suite", allow_abbrev=False)
    suites = p_verify.add_subparsers(dest="suite", required=True)
    for name, params in {**_VERIFY_FLAGS, "all": list(_VERIFY_FLAG_TYPES)}.items():
        leaf = suites.add_parser(name, allow_abbrev=False)
        leaf.add_argument("--out", default=None)
        leaf.add_argument("--inject-tau-fault", action="store_true", help=argparse.SUPPRESS)
        for param in params:
            leaf.add_argument("--" + param.replace("_", "-"), type=_VERIFY_FLAG_TYPES[param])
        leaf.set_defaults(fn=_cmd_verify, parser=leaf)

    p_tables = sub.add_parser("tables", help="emit a data table", allow_abbrev=False)
    p_tables.set_defaults(fn=_cmd_tables)
    kinds = p_tables.add_subparsers(dest="table", required=True)
    kind = {}
    for name in sorted(_TABLES):
        leaf = kind[name] = kinds.add_parser(name, allow_abbrev=False)
        leaf.add_argument("--format", choices=["json", "tsv", "csv"], default="tsv")
        leaf.add_argument("--out", default=None)
        leaf.set_defaults(parser=leaf)
    kind["rank"].add_argument("--n-max", type=int, default=10)
    kind["zeros"].add_argument("--count", type=int, default=10)
    kind["spacings"].add_argument("--count", type=int, default=10)
    kind["lvalues"].add_argument("--s-values", type=_s_value_list, default="4,5,8,9")
    kind["shadow"].add_argument("--r-d", type=float, default=1.0)
    kind["shadow"].add_argument("--e", type=float, default=1.0)
    kind["shadow"].add_argument("--f", type=float, default=1.0)
    kind["shadow"].add_argument("--grid", type=int, default=16)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # a flag the command does not take is reported with that command's usage
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        _check_bounds(args)
        return args.fn(args)
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, MemoryError):
        # a bound past what a list can index or memory can hold
        print("invalid arguments: a bound is too large to allocate", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        from .lseries import BracketingError

        if not isinstance(exc, BracketingError):
            raise
        # the zero scan of `tables zeros` or `verify lfunc` lost its bracketing
        what = "table generation" if args.command == "tables" else "verification"
        print(f"{what} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
