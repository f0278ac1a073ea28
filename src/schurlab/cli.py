"""Command-line interface: catalog verification, multipliers, covers,
collection-identity checks, bound tables, and the alpha coefficients."""
from __future__ import annotations

import argparse
import sys

from .bounds import emit_tables
from .catalog import CatalogError, find_bundled
from .identities import LEMMA_IDS, IdentityError, alpha, verify_collection_lemma
from .multiplier import DEFAULT_ORACLE_CAP, ORACLE_HARD_CAP, OracleCapExceeded
from .multiplier import exterior_exponent, schur_cover, schur_multiplier
from .pcgroup import PcError
from .verifier import RULE_IDS, RunConfig, run


class UsageError(Exception):
    """Bad input that a subcommand detects; ``main`` reports it and exits 2."""


def _find_presentation(name: str):
    entry = find_bundled(name)
    if entry is None:
        raise UsageError(f"no bundled group named {name!r}")
    return entry.presentation


def _cmd_verify(args: argparse.Namespace) -> int:
    if not 0 <= args.oracle_cap <= ORACLE_HARD_CAP:
        raise UsageError(
            f"--oracle-cap {args.oracle_cap}: must lie in 0..{ORACLE_HARD_CAP}, "
            "the bar oracle's hard limit"
        )
    if args.jobs < 1:
        raise UsageError(f"--jobs {args.jobs}: must be at least 1")
    if args.max_order is not None and args.max_order < 1:
        raise UsageError(f"--max-order {args.max_order} selects no group")
    if args.rules == "all":
        rules = None
    else:
        rules = tuple(r.strip() for r in args.rules.split(",") if r.strip())
        if not rules:
            raise UsageError("--rules selects no rule")
        unknown = [r for r in rules if r not in RULE_IDS]
        if unknown:
            raise UsageError(f"unknown rules {unknown}; valid: {', '.join(RULE_IDS)}")
    config = RunConfig(
        catalog_paths=tuple(args.catalog),
        rules=rules,
        max_order=args.max_order,
        oracle_cap=args.oracle_cap,
        strict=args.strict,
        jobs=args.jobs,
    )
    try:
        result = run(config)
    except (CatalogError, PcError, OSError, ValueError) as exc:
        raise UsageError(exc) from None
    print(result.render(args.format))
    return result.exit_code


def _cmd_multiplier(args: argparse.Namespace) -> int:
    pres = _find_presentation(args.group)
    try:
        inv = schur_multiplier(pres, method=args.method)
    except OracleCapExceeded as exc:
        raise UsageError(exc) from None
    print(f"M({args.group}) = {inv}")
    return 0


def _cmd_cover(args: argparse.Namespace) -> int:
    pres = _find_presentation(args.group)
    result = schur_cover(pres)
    ext = exterior_exponent(pres, result)
    print(f"cover of {args.group}: order {result.cover.order} "
          f"= {pres.order} * {result.multiplier.order}")
    print(f"M({args.group}) = {result.multiplier}")
    print(f"e(G∧G) = {ext}")
    if args.print_presentation:
        print(result.cover.to_catalog_text())
    return 0


def _cmd_identities(args: argparse.Namespace) -> int:
    ids = args.check or list(LEMMA_IDS)
    unknown = [i for i in ids if i not in LEMMA_IDS]
    if unknown:
        raise UsageError(f"unknown identity ids {unknown}; valid: {', '.join(LEMMA_IDS)}")
    try:
        reports = [verify_collection_lemma(lemma_id, n_max=args.n_max) for lemma_id in ids]
    except IdentityError as exc:
        raise UsageError(exc) from None
    failed = False
    for lemma_id, report in zip(ids, reports):
        status = "pass" if report.passed else "FAIL"
        line = f"{lemma_id}: {status} ({report.detail})"
        if not report.passed:
            line += f" counterexample: {report.counterexample}"
            failed = True
        print(line)
    return 1 if failed else 0


def _cmd_tables(args: argparse.Namespace) -> int:
    print(emit_tables())
    return 0


def _cmd_alpha(args: argparse.Namespace) -> int:
    try:
        value = alpha(args.m, args.n)
    except IdentityError as exc:
        raise UsageError(exc) from None
    print(value)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schurlab",
        description="Verification workbench for exponent bounds on Schur "
        "multipliers of finite p-groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run theorem rules over a catalog")
    p_verify.add_argument("--catalog", action="append", default=[],
                          help="extra catalog file (repeatable)")
    p_verify.add_argument("--rules", default="all",
                          help="'all' or comma-separated rule ids (R1,R3,...)")
    p_verify.add_argument("--max-order", type=int, default=None)
    p_verify.add_argument("--oracle-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p_verify.add_argument("--strict", action="store_true",
                          help="exit 3 when any result was skipped")
    p_verify.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_verify.add_argument("--jobs", type=int, default=1)
    p_verify.set_defaults(func=_cmd_verify)

    p_mult = sub.add_parser("multiplier", help="Schur multiplier of one bundled group")
    p_mult.add_argument("--group", required=True)
    p_mult.add_argument("--method", choices=("tails", "bar", "both"), default="tails")
    p_mult.set_defaults(func=_cmd_multiplier)

    p_cover = sub.add_parser("cover", help="Schur cover of one bundled group")
    p_cover.add_argument("--group", required=True)
    p_cover.add_argument("--print-presentation", action="store_true")
    p_cover.set_defaults(func=_cmd_cover)

    p_ident = sub.add_parser("identities", help="verify collection identities")
    p_ident.add_argument("--check", action="append", default=[],
                         help="identity id (repeatable); default: all")
    p_ident.add_argument("--n-max", type=int, default=20)
    p_ident.set_defaults(func=_cmd_identities)

    p_tables = sub.add_parser("tables", help="print the bound-comparison tables")
    p_tables.set_defaults(func=_cmd_tables)

    p_alpha = sub.add_parser("alpha", help="alpha(m, n) coefficient")
    p_alpha.add_argument("--m", type=int, required=True)
    p_alpha.add_argument("--n", type=int, required=True)
    p_alpha.set_defaults(func=_cmd_alpha)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
