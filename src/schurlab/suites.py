"""Structural law suites checked exhaustively on small catalog groups.

Each suite tests a group-theoretic law (regular-group power laws, class-p
commutator-order bounds, the p = 3 congruence over the centralizer of
a^(3^n), and the p-th-power set property) on groups whose flags satisfy the
law's hypothesis.  Suites are exhaustive over the elements each law
quantifies; L3.1 and L3.6 share one sweep over the pairs (a, b) with
[b, a^(p^n)] = 1.  A failure carries an explicit counterexample.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .pcgroup import GroupFlags, NormalWord, PcGroup

# Exhaustive pair sweeps stay affordable up to this order.
SUITE_ORDER_CAP = 81


@dataclass(frozen=True)
class SuiteReport:
    suite_id: str
    applicable: bool
    passed: Optional[bool]  # None when not applicable
    detail: str
    counterexample: Optional[str] = None


# A check returns (detail, counterexample); the counterexample is None on a pass.
Outcome = tuple[str, Optional[str]]


def _pn_range(group: PcGroup) -> list[int]:
    """Exponents n with p^n <= e(G); larger n repeat the p^e(G) case."""
    p = group.pres.prime
    e = group.exponent()
    ns = []
    q = p
    n = 1
    while q <= e:
        ns.append(n)
        q *= p
        n += 1
    return ns


def _centralizing(group: PcGroup) -> Iterator[tuple[NormalWord, NormalWord, int, NormalWord]]:
    """(a, b, n, a^q), q = p^n, for each a, each n in _pn_range and each b
    with [b, a^q] = 1, in that order."""
    p = group.pres.prime
    one = group.identity
    elems = group.elements()
    ns = _pn_range(group)
    for a in elems:
        for n in ns:
            aq = group.power(a, p**n)
            for b in elems:
                if group.commutator(b, aq) == one:
                    yield a, b, n, aq


def _equivalence_counterexample(
    group: PcGroup, a: NormalWord, b: NormalWord, comm: NormalWord, a_q: NormalWord, n: int
) -> Optional[str]:
    """None when [b,a]^q = 1, [b,a^q] = 1, [b^q,a] = 1 (q = p^n, comm = [b,a],
    a_q = a^q) hold or fail together, else the counterexample."""
    q = group.pres.prime**n
    one = group.identity
    c1 = group.power(comm, q) == one
    c2 = group.commutator(b, a_q) == one
    c3 = group.commutator(group.power(b, q), a) == one
    if c1 == c2 == c3:
        return None
    return f"a={a}, b={b}, n={n}: ({c1},{c2},{c3})"


def check_regular_power_laws(group: PcGroup, flags: GroupFlags) -> Outcome:
    """Power laws of regular p-groups, exhaustive over element pairs.

    (i)   [b,a]^{p^n} = 1, [b,a^{p^n}] = 1 and [b^{p^n},a] = 1 are equivalent;
    (iii) order(ab) <= max(order(a), order(b));
    (iv)  a^{p^n} = b^{p^n} iff (a b^{-1})^{p^n} = 1.
    """
    p = group.pres.prime
    one = group.identity
    elems = group.elements()
    ns = _pn_range(group)
    checked = 0
    for a in elems:
        ord_a = group.element_order(a)
        a_pows = {n: group.power(a, p**n) for n in ns}
        for b in elems:
            comm = group.commutator(b, a)
            for n in ns:
                q = p**n
                bad = _equivalence_counterexample(group, a, b, comm, a_pows[n], n)
                if bad is not None:
                    return "part (i) equivalence failed", bad
                if (a_pows[n] == group.power(b, q)) != (
                    group.power(group.multiply(a, group.inverse(b)), q) == one
                ):
                    return "part (iv) equivalence failed", f"a={a}, b={b}, n={n}"
                checked += 3
            prod_ord = group.element_order(group.multiply(a, b))
            if prod_ord > max(ord_a, group.element_order(b)):
                return "part (iii) order bound failed", f"a={a}, b={b}: order(ab)={prod_ord}"
            checked += 1
    return f"{checked} instances over {len(elems)}^2 pairs", None


def check_central_power_abelian(group: PcGroup, flags: GroupFlags) -> Outcome:
    """On regular groups: [b, a^{p^n}] = 1 implies (ab)^{p^n} = a^{p^n} b^{p^n}."""
    p = group.pres.prime
    checked = 0
    for a, b, n, aq in _centralizing(group):
        q = p**n
        if group.power(group.multiply(a, b), q) != group.multiply(aq, group.power(b, q)):
            return "power-abelian conclusion failed", f"a={a}, b={b}, n={n}"
        checked += 1
    return f"{checked} hypothesis instances", None


def check_class_p_commutator_equivalence(group: PcGroup, flags: GroupFlags) -> Outcome:
    """On groups of class exactly p: the three vanishing conditions
    [b,a]^{p^n} = 1, [b,a^{p^n}] = 1, [b^{p^n},a] = 1 are pairwise equivalent.
    """
    p = group.pres.prime
    elems = group.elements()
    ns = _pn_range(group)
    checked = 0
    for a in elems:
        a_pows = {n: group.power(a, p**n) for n in ns}
        for b in elems:
            comm = group.commutator(b, a)
            for n in ns:
                bad = _equivalence_counterexample(group, a, b, comm, a_pows[n], n)
                if bad is not None:
                    return "equivalence failed", bad
                checked += 1
    return f"{checked} instances", None


def check_commutator_order_bound(group: PcGroup, flags: GroupFlags) -> Outcome:
    """On groups of class exactly p: every right-normed commutator of weight
    <= 3 with at least one slot equal to a (other slots over the generators)
    has order at most the order of a modulo the center.
    """
    p = group.pres.prime
    center = group.center()
    gens = group.generators()
    checked = 0
    for a in group.elements():
        bound = next(p**k for k in itertools.count() if group.power(a, p**k) in center)
        slots2 = [(a, g) for g in gens] + [(g, a) for g in gens] + [(a, a)]
        pool = gens + [a]
        slots3 = [
            (x, y, z)
            for x in pool
            for y in pool
            for z in pool
            if a in (x, y, z)
        ]
        for seq in slots2 + slots3:
            c = group.iterated_commutator(list(seq))
            if group.element_order(c) > bound:
                return "commutator order exceeds bound", f"a={a}, slots={seq}, bound={bound}"
            checked += 1
    return f"{checked} commutators", None


def check_three_group_congruence(group: PcGroup, flags: GroupFlags) -> Outcome:
    """On 3-groups of class <= 4: whenever [b, a^{3^n}] = 1 in H = <a,b>,
    [a,a,[h,a]]^{C(3^n,3)} [h,a]^{3^n} = 1 for all h in H.

    The (a, h, n) this quantifies over are exactly those with [h, a^{3^n}] = 1:
    a^{3^n} commutes with a and b, so it is central in H and commutes with
    every h in H; conversely h lies in <a,h>, where b = h meets the
    hypothesis.  So the check runs over the centralizer of a^{3^n} and
    builds no subgroup.
    """
    if flags.nilpotency_class <= 1:
        return "abelian: both sides trivial", None
    one = group.identity
    checked = 0
    for a, h, n, _ in _centralizing(group):
        q = 3**n
        c = group.commutator(h, a)
        t = group.commutator(a, group.commutator(a, c))
        if group.multiply(group.power(t, math.comb(q, 3)), group.power(c, q)) != one:
            return "congruence failed", f"a={a}, h={h}, n={n}"
        checked += 1
    return f"{checked} congruence instances", None


def _power_set_conditions(flags: GroupFlags) -> list[str]:
    """Which of T5.4's alternative hypotheses the group satisfies."""
    hyp = []
    if flags.is_regular is True:
        hyp.append("regular")
    if flags.condition1_m is not None:
        hyp.append(f"condition(1) at m={flags.condition1_m}")
    if flags.condition2:
        hyp.append("condition(2)")
    return hyp


def check_power_set_property(group: PcGroup, flags: GroupFlags) -> Outcome:
    """On regular / condition (1) / condition (2) groups: the set of p-th
    powers {x^p : x in G} equals the subgroup G^p.
    """
    p = group.pres.prime
    power_set = group.power_set(p)
    subgroup = group.power_subgroup(p).elements
    if power_set != subgroup:
        extra = next(iter(subgroup - power_set))
        return (
            f"G^p has {len(subgroup)} elements, only {len(power_set)} are p-th powers",
            f"{extra} is not a p-th power",
        )
    return f"{'; '.join(_power_set_conditions(flags))}: {len(power_set)} elements match", None


# -- hypotheses: None when the suite applies, else why it does not ----------------


def _regular(group: PcGroup, flags: GroupFlags) -> Optional[str]:
    return None if flags.is_regular is True else "group is not regular"


def _class_p(group: PcGroup, flags: GroupFlags) -> Optional[str]:
    c, p = flags.nilpotency_class, group.pres.prime
    return None if c == p else f"class {c} != p = {p}"


def _three_group_class_4(group: PcGroup, flags: GroupFlags) -> Optional[str]:
    if group.pres.prime != 3:
        return "not a 3-group"
    c = flags.nilpotency_class
    return None if c <= 4 else f"class {c} > 4"


def _power_set_hypothesis(group: PcGroup, flags: GroupFlags) -> Optional[str]:
    return None if _power_set_conditions(flags) else "neither regular nor condition (1)/(2)"


# id: (hypothesis, check, whether SUITE_ORDER_CAP applies), in report order
_SUITES = {
    "L2.15": (_regular, check_regular_power_laws, True),
    "L3.1": (_regular, check_central_power_abelian, True),
    "L3.2": (_class_p, check_class_p_commutator_equivalence, True),
    "L3.5": (_class_p, check_commutator_order_bound, True),
    "L3.6": (_three_group_class_4, check_three_group_congruence, True),
    "T5.4": (_power_set_hypothesis, check_power_set_property, False),
}
SUITE_IDS = tuple(_SUITES)


def run_suites(group: PcGroup, flags: Optional[GroupFlags] = None) -> list[SuiteReport]:
    """One report per suite, in SUITE_IDS order; a suite runs only when its
    hypothesis holds and, for the pair sweeps, the order is within the cap."""
    if flags is None:
        flags = group.classify()
    reports = []
    for sid, (hypothesis, check, capped) in _SUITES.items():
        why = hypothesis(group, flags)
        if why is None and capped and group.order > SUITE_ORDER_CAP:
            why = f"order {group.order} above suite cap"
        if why is not None:
            reports.append(SuiteReport(sid, False, None, why))
        else:
            detail, counterexample = check(group, flags)
            reports.append(SuiteReport(sid, True, counterexample is None, detail, counterexample))
    return reports
