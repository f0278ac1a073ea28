"""Per-group profiling and theorem-rule evaluation over a catalog.

Each catalog group gets a GroupProfile (order, flags, exponent data, Schur
multiplier, exterior-square exponent) and a report stating, for every rule
R1..R14, whether its hypothesis applies and whether its divisibility
conclusion holds.  A violated rule is a finding to surface, not an internal
error; a group whose computation fails gets an error report instead, and the
run goes on.  Runs are deterministic: output is ordered by group name
regardless of worker count.
"""
from __future__ import annotations

import csv
import io
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

from .bounds import ceil_log_ratio, thm61_bound, thm65_bound, thm73_bound
from .catalog import CatalogEntry, import_file, load_bundled
from .multiplier import (
    DEFAULT_ORACLE_CAP,
    AbelianInvariants,
    crosscheck_multiplier,
    exterior_exponent,
    schur_cover,
)
from .pcgroup import EnumerationCapExceeded, GroupFlags, PcError, PcPresentation, group_of
from .suites import SuiteReport, run_suites

RULE_IDS = (
    "R1", "R2", "R3", "R4", "R5", "R6", "R7",
    "R8", "R9", "R10", "R11", "R12", "R13", "R14",
)
_STATUSES = ("holds", "violated", "not_applicable", "skipped")


@dataclass(frozen=True)
class RuleResult:
    status: str  # holds | violated | not_applicable | skipped(...) | observed
    witness: Optional[str] = None


@dataclass(frozen=True)
class GroupProfile:
    name: str
    order: int
    prime: Optional[int]
    flags: GroupFlags
    central_quotient_exponent: int
    gamma2_exponent: int
    multiplier: AbelianInvariants
    multiplier_crosscheck: str  # "bar" once cross-checked, else "skipped(...)"
    exterior_exponent: Optional[int]
    exterior_skip_reason: Optional[str]
    r8_m: Optional[int]
    r8_gamma_exponent: Optional[int]
    r8_quotient_exponent: Optional[int]
    suites: tuple[SuiteReport, ...]


def profile(pres: PcPresentation, oracle_cap: int = DEFAULT_ORACLE_CAP) -> GroupProfile:
    group = group_of(pres)
    flags = group.classify()
    # the suites sweep G, so a group above the enumeration cap fails here,
    # before its cover is built and checked
    suites = tuple(run_suites(group, flags))
    p = pres.prime
    gamma2_exp = group.gamma2.exponent()
    central_quot_exp = group.exponent(modulo=group.center())

    # One tails matrix and one cover group give M(G) and e(G∧G); only the
    # exponent walk over γ₂(H) enumerates, and it may pass the cap.
    cover = schur_cover(pres)
    mult = cover.multiplier
    ext: Optional[int]
    ext_skip: Optional[str]
    try:
        ext = exterior_exponent(pres, cover)
        ext_skip = None
    except EnumerationCapExceeded as exc:
        ext = None
        ext_skip = f"cover enumeration cap: {exc}"

    if group.order <= oracle_cap:
        mult = crosscheck_multiplier(pres, mult, oracle_cap=oracle_cap)
        crosscheck = "bar"
    else:
        crosscheck = f"skipped(order {group.order} exceeds oracle cap {oracle_cap})"

    c = flags.nilpotency_class
    r8_m = r8_gamma = r8_quot = None
    if p is not None and p % 2 == 1 and c >= 3:
        m = -((c + 1) // -3)
        if 2 <= m <= p + 1:
            gamma_m = group.gamma(m)
            r8_m = m
            r8_gamma = gamma_m.exponent()
            r8_quot = group.exponent(modulo=gamma_m)

    return GroupProfile(
        name=pres.name,
        order=group.order,
        prime=p,
        flags=flags,
        central_quotient_exponent=central_quot_exp,
        gamma2_exponent=gamma2_exp,
        multiplier=mult,
        multiplier_crosscheck=crosscheck,
        exterior_exponent=ext,
        exterior_skip_reason=ext_skip,
        r8_m=r8_m,
        r8_gamma_exponent=r8_gamma,
        r8_quotient_exponent=r8_quot,
        suites=suites,
    )


def _suite_verdict(suites: tuple[SuiteReport, ...]) -> RuleResult:
    """R14: every suite whose hypothesis the group satisfies must pass."""
    applicable = [s for s in suites if s.applicable]
    if not applicable:
        return RuleResult("not_applicable", "no suite hypothesis satisfied")
    failed = [s for s in applicable if not s.passed]
    if failed:
        return RuleResult(
            "violated", "; ".join(f"{s.suite_id}: {s.counterexample}" for s in failed)
        )
    return RuleResult("holds", "passed: " + ", ".join(s.suite_id for s in applicable))


def evaluate_rules(
    prof: GroupProfile, selection: Optional[list[str]] = None
) -> dict[str, RuleResult]:
    flags = prof.flags
    p = prof.prime
    c = flags.nilpotency_class
    e = flags.exponent
    odd_p = p is not None and p % 2 == 1
    gamma2 = ("e(γ₂)", prof.gamma2_exponent)
    mult = ("e(M)", prof.multiplier.exponent)
    ext = ("e(G∧G)", prof.exterior_exponent)

    def divides(quantity: tuple[str, Optional[int]], bound: int, desc: str) -> RuleResult:
        """Conclusion "quantity | bound"; skipped when e(G∧G) is unavailable."""
        label, value = quantity
        if value is None:
            return RuleResult(f"skipped({prof.exterior_skip_reason})")
        return RuleResult(
            "holds" if bound % value == 0 else "violated", f"{label}={value} vs {desc}={bound}"
        )

    def e_power(n: int) -> tuple[int, str]:
        return e**n, f"e(G)^{n}"

    def na(why: str) -> RuleResult:
        return RuleResult("not_applicable", why)

    # R12's bound, 2^a e(G)^d with a = 0 for odd e(G) (Theorem 7.3)
    a, d = thm73_bound(max(flags.derived_length, 1), e % 2 == 1)
    results = {
        # R1: class exactly p -> e(γ₂) | e(G/Z)
        "R1": divides(gamma2, prof.central_quotient_exponent, "e(G/Z)")
        if p is not None and c == p else na(f"class {c} != p"),
        # R2: p odd, class <= p+1 (deliberately widened from exactly p+1),
        # p^n-central -> e(γ₂) | p^n
        "R2": divides(gamma2, p**flags.central_pn, f"p^{flags.central_pn}")
        if odd_p and c <= p + 1 else na("needs odd p and class <= p+1"),
        # R3: p odd, class <= p -> e(G∧G) | e(G)
        "R3": divides(ext, e, "e(G)")
        if odd_p and c <= p else na("needs odd p and class <= p"),
        # R4: p odd, class exactly 5 -> e(G∧G) | e(G)
        "R4": divides(ext, e, "e(G)")
        if odd_p and c == 5 else na("needs odd p and class exactly 5"),
        # R5: p odd, powerful -> e(G∧G) | e(G)
        "R5": divides(ext, e, "e(G)")
        if odd_p and flags.is_powerful else na("needs odd p and powerful"),
        # R6: p odd, condition (1) or condition (2) -> e(G∧G) | e(G)
        "R6": divides(ext, e, "e(G)")
        if odd_p and (flags.condition1_m is not None or flags.condition2)
        else na("needs odd p and condition (1) or (2)"),
        # R7: e(G) odd, class > 1 -> e(G∧G) | e(G)^ceil(log3((c+1)/2))
        "R7": divides(ext, *e_power(thm61_bound(c)))
        if e % 2 == 1 and c > 1 else na("needs odd exponent and class > 1"),
        # R8: p odd, m = ceil((c+1)/3) in [2, p+1] -> e(G∧G) | e(γ_m) e(G/γ_m)
        "R8": divides(
            ext,
            prof.r8_gamma_exponent * prof.r8_quotient_exponent,
            f"e(γ_{prof.r8_m})·e(G/γ_{prof.r8_m})"
            f"={prof.r8_gamma_exponent}·{prof.r8_quotient_exponent}",
        )
        if prof.r8_m is not None else na("needs odd p and 2 <= ceil((c+1)/3) <= p+1"),
        # R9: p odd -> e(G∧G) | e(G)^ceil(log_{p-1}(c+1))
        "R9": divides(ext, *e_power(ceil_log_ratio(p - 1, c + 1, 1)))
        if odd_p else na("needs odd p"),
        # R10: p odd, class >= p -> e(G∧G) | e(G)^(1+ceil(log_{p-1}((c+1)/(p+1))))
        "R10": divides(ext, *e_power(thm65_bound(c, p)))
        if odd_p and c >= p else na("needs odd p and class >= p"),
        # R11: p-central metabelian -> e(M) | e(G)
        "R11": na("needs a p-group") if p is None
        else divides(mult, e, "e(G)") if flags.central_pn <= 1 and flags.is_metabelian
        else na("needs p-central and metabelian"),
        # R12: derived length d -> e(M) | e(G)^d (odd e) or 2^{d-1} e(G)^d (even e)
        "R12": divides(mult, 2**a * e**d, f"e(G)^{d}" if e % 2 else f"2^{a}·e(G)^{d}"),
        # R13: conjecture, all p-groups -> e(M) | p e(G)
        "R13": divides(mult, p * e, "p·e(G)") if p is not None else na("needs a p-group"),
        # R14: structural suites
        "R14": _suite_verdict(prof.suites),
    }

    # Non-failing observation on regular groups: does e(G∧G) | e(G)?
    if flags.is_regular is True:
        x = prof.exterior_exponent
        results["OBS"] = RuleResult(
            "observed",
            "exterior exponent unavailable" if x is None
            else f"e(G∧G)={x} divides e(G)={e}: {'yes' if e % x == 0 else 'no'}",
        )

    if selection is not None:
        keep = set(selection) | {"OBS"}
        results = {k: v for k, v in results.items() if k in keep}
    return results


# -- catalog runs -------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    catalog_paths: tuple[str, ...] = ()
    rules: Optional[tuple[str, ...]] = None  # None = all
    max_order: Optional[int] = None
    oracle_cap: int = DEFAULT_ORACLE_CAP
    strict: bool = False
    jobs: int = 1
    include_bundled: bool = True


def record_for(
    pres: PcPresentation,
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    rules: Optional[tuple[str, ...]] = None,
) -> dict:
    """JSON-ready report for one group.  A schurlab error (``PcError``) is
    the group's report, with status "error", and the run goes on."""
    try:
        prof = profile(pres, oracle_cap=oracle_cap)
    except PcError as exc:
        return {"name": pres.name, "order": pres.order, "status": "error", "error": str(exc)}
    evaluated = evaluate_rules(prof, list(rules) if rules is not None else None)
    flags = prof.flags
    return {
        "name": prof.name,
        "order": prof.order,
        "prime": prof.prime,
        "class": flags.nilpotency_class,
        "derived_length": flags.derived_length,
        "exponent": flags.exponent,
        "flags": {
            "is_regular": flags.is_regular,
            "is_powerful": flags.is_powerful,
            "condition1_m": flags.condition1_m,
            "condition2": flags.condition2,
            "central_pn": flags.central_pn,
            "is_metabelian": flags.is_metabelian,
        },
        "multiplier": list(prof.multiplier.torsion),
        "multiplier_crosscheck": prof.multiplier_crosscheck,
        "exterior_exponent": (
            prof.exterior_exponent
            if prof.exterior_exponent is not None
            else f"skipped({prof.exterior_skip_reason})"
        ),
        "rules": {
            rule: {"status": res.status, "witness": res.witness}
            for rule, res in evaluated.items()
        },
    }


def _worker(args: tuple) -> dict:
    pres, oracle_cap, rules = args
    return record_for(pres, oracle_cap=oracle_cap, rules=rules)


def gather_entries(config: RunConfig) -> list[CatalogEntry]:
    entries: list[CatalogEntry] = []
    if config.include_bundled:
        entries.extend(load_bundled())
    for path in config.catalog_paths:
        entries.extend(import_file(path))
    seen: set[str] = set()
    for entry in entries:
        if entry.name in seen:
            raise ValueError(f"duplicate group name across catalogs: {entry.name}")
        seen.add(entry.name)
    if config.max_order is not None:
        entries = [e for e in entries if e.order <= config.max_order]
    return sorted(entries, key=lambda e: e.name)


@dataclass
class RunResult:
    records: list[dict]
    summary: dict[str, dict[str, int]]
    exit_code: int

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return json.dumps(
                {"groups": self.records, "summary": self.summary}, indent=2
            )
        if fmt == "csv":
            # the writer quotes a field that needs it, such as a group name
            # with a comma; witnesses and errors keep theirs as semicolons
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["group", "order", "rule", "status", "witness"])
            for rec in self.records:
                if "error" in rec:
                    error = rec["error"].replace(",", ";")
                    writer.writerow([rec["name"], rec["order"], "", "error", error])
                    continue
                for rule, res in rec["rules"].items():
                    witness = (res["witness"] or "").replace(",", ";")
                    writer.writerow([rec["name"], rec["order"], rule, res["status"], witness])
            return out.getvalue().removesuffix("\n")
        lines = []
        for rec in self.records:
            if "error" in rec:
                lines.append(f"{rec['name']} (order {rec['order']}): error: {rec['error']}")
                continue
            mult = rec["multiplier"]
            lines.append(
                f"{rec['name']} (order {rec['order']}, class {rec['class']}, "
                f"e(G)={rec['exponent']}): M={mult or '[]'}, "
                f"e(G∧G)={rec['exterior_exponent']}"
            )
            for rule, res in rec["rules"].items():
                if res["status"] == "not_applicable":
                    continue
                suffix = f" [{res['witness']}]" if res["witness"] else ""
                lines.append(f"  {rule}: {res['status']}{suffix}")
        lines.append("")
        lines.append("summary (rule: holds/violated/not_applicable/skipped):")
        for rule, counts in self.summary.items():
            line = (
                f"  {rule}: {counts['holds']}/{counts['violated']}"
                f"/{counts['not_applicable']}/{counts['skipped']}"
            )
            if counts.get("vacuous"):
                line += "  (vacuous on this catalog: hypothesis never satisfied)"
            lines.append(line)
        return "\n".join(lines)


def run(config: RunConfig) -> RunResult:
    entries = gather_entries(config)
    tasks = [(e.presentation, config.oracle_cap, config.rules) for e in entries]
    if config.jobs > 1 and len(tasks) > 1:
        # A pool starts all its workers at once: never more than there are groups.
        with ProcessPoolExecutor(max_workers=min(config.jobs, len(tasks))) as pool:
            records = list(pool.map(_worker, tasks))
    else:
        records = [_worker(t) for t in tasks]
    records.sort(key=lambda r: r["name"])

    # Each rule status counts under its prefix: "skipped(...)" under skipped.
    summary: dict[str, dict[str, int]] = {}
    skipped = errors = 0
    for rec in records:
        if "error" in rec:
            errors += 1
            continue
        skipped += rec["multiplier_crosscheck"].startswith("skipped")
        skipped += isinstance(rec["exterior_exponent"], str)
        for rule, res in rec["rules"].items():
            if rule != "OBS":
                counts = summary.setdefault(rule, dict.fromkeys(_STATUSES, 0))
                counts[res["status"].partition("(")[0]] += 1
    for counts in summary.values():
        counts["vacuous"] = int(counts["holds"] + counts["violated"] + counts["skipped"] == 0)
        skipped += counts["skipped"]
    exit_code = 0
    if any(counts["violated"] for counts in summary.values()):
        exit_code = 1
    elif errors:
        exit_code = 4
    elif config.strict and skipped:
        exit_code = 3
    return RunResult(records=records, summary=summary, exit_code=exit_code)
