"""Structural law suites checked exhaustively on small catalog groups.

Each suite tests a group-theoretic law (regular-group power laws, class-p
commutator-order bounds, the p = 3 congruence over the centralizer of
a^(3^n), and the p-th-power set property) on groups whose flags satisfy the
law's hypothesis.  Suites are exhaustive over the elements each law
quantifies; L3.1 and L3.6 share one sweep over the pairs (a, b) with
[b, a^(p^n)] = 1.  A failure carries an explicit counterexample.

The pair laws L2.15, L3.1, L3.2 and L3.6 hold at (a, b) exactly when they
hold at (a^g, b^g), so their sweeps take a over a conjugacy-class
transversal (``_classes``, each class's least index) and b over G, an
instance at a standing for |a^G| of them.  The failing a form a union of
classes, so the least of them is a representative and the first
counterexample is the one a sweep over every a finds.  In an abelian group
every law holds, and L2.15 and L3.1 report their counts in closed form.

The pair sweeps run on element indices: products are reads of the group's
Cayley table ``rows``, inverses of ``inverses``, a^(p^n) of the power map
``power_maps[n]`` and orders of ``element_orders``, each built once per
group, so a commutator is four list reads and [b, x] = 1 is the two-read
test b·x = x·b.  Elements are named as words only in counterexamples.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .pcgroup import GroupFlags, PcGroup

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


def _powers(group: PcGroup) -> list[tuple[int, list[int]]]:
    """(n, power) for n = 1 up to log_p exp(G), larger n repeating the last
    case; power[x] is the index of x^(p^n) (``PcGroup.power_maps``)."""
    return list(enumerate(group.power_maps))[1:]


def _classes(group: PcGroup) -> list[tuple[int, int]]:
    """(a, |a^G|) for each conjugacy class of G, a the class's least index,
    in increasing order: one orbit pass of x ↦ g^{-1}xg over the pc
    generators g."""
    rows, inv = group.rows, group.inverses
    conjugators = [(rows[inv[g]], g) for g in map(group.position, group.generators())]
    seen = [False] * group.order
    classes = []
    for a in range(group.order):
        if seen[a]:
            continue
        seen[a] = True
        orbit = [a]
        for x in orbit:
            for row_ginv, g in conjugators:
                y = rows[row_ginv[x]][g]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
        classes.append((a, len(orbit)))
    return classes


def _centralizing(group: PcGroup) -> Iterator[tuple[int, int, int, int, list[int]]]:
    """(a, weight, b, n, power) for each a of ``_classes`` with weight
    |a^G|, each n of ``_powers`` and each index b with [b, a^q] = 1,
    q = p^n, in that order; power[x] is the index of x^q."""
    rows = group.rows
    pows = _powers(group)
    for a, weight in _classes(group):
        for n, power in pows:
            aq = power[a]
            row_aq = rows[aq]
            for b in range(group.order):
                # [b, aq] = 1 iff b·aq = aq·b
                if rows[b][aq] == row_aq[b]:
                    yield a, weight, b, n, power


def _commutator(rows, inverses, u: int, v: int) -> int:
    """Index of [u, v] = uv (vu)^{-1}."""
    return rows[rows[u][v]][inverses[rows[v][u]]]


def _equivalence_counterexample(
    group: PcGroup, power: list[int], a: int, b: int, comm: int, n: int
) -> Optional[str]:
    """None when [b,a]^q = 1, [b,a^q] = 1, [b^q,a] = 1 (q = p^n, power[x]
    the index of x^q, comm = [b,a], all indices) hold or fail together, else
    the counterexample."""
    rows = group.rows
    c1 = power[comm] == 0
    aq, bq = power[a], power[b]
    c2 = rows[b][aq] == rows[aq][b]
    c3 = rows[bq][a] == rows[a][bq]
    if c1 == c2 == c3:
        return None
    elems = group.elements()
    return f"a={elems[a]}, b={elems[b]}, n={n}: ({c1},{c2},{c3})"


def check_regular_power_laws(group: PcGroup, flags: GroupFlags) -> Outcome:
    """Power laws of regular p-groups, exhaustive over element pairs.

    (i)   [b,a]^{p^n} = 1, [b,a^{p^n}] = 1 and [b^{p^n},a] = 1 are equivalent;
    (iii) order(ab) <= max(order(a), order(b));
    (iv)  a^{p^n} = b^{p^n} iff (a b^{-1})^{p^n} = 1.

    Each pair checks 3N + 1 instances, N = ``len(_powers)``.  An abelian
    group passes without a sweep.
    """
    pows = _powers(group)
    detail = f"{group.order**2 * (3 * len(pows) + 1)} instances over {group.order}^2 pairs"
    if flags.nilpotency_class <= 1:
        return detail, None
    rows, inv = group.rows, group.inverses
    elems, orders = group.elements(), group.element_orders
    for a, _ in _classes(group):
        row_a = rows[a]
        for b in range(group.order):
            comm = _commutator(rows, inv, b, a)
            for n, power in pows:
                bad = _equivalence_counterexample(group, power, a, b, comm, n)
                if bad is not None:
                    return "part (i) equivalence failed", bad
                if (power[a] == power[b]) != (power[row_a[inv[b]]] == 0):
                    return "part (iv) equivalence failed", f"a={elems[a]}, b={elems[b]}, n={n}"
            prod_ord = orders[row_a[b]]
            if prod_ord > max(orders[a], orders[b]):
                return (
                    "part (iii) order bound failed",
                    f"a={elems[a]}, b={elems[b]}: order(ab)={prod_ord}",
                )
    return detail, None


def check_central_power_abelian(group: PcGroup, flags: GroupFlags) -> Outcome:
    """On regular groups: [b, a^{p^n}] = 1 implies (ab)^{p^n} = a^{p^n} b^{p^n}.

    In an abelian group all |G|^2 N hypothesis instances hold, N =
    ``len(_powers)``, and pass without a sweep.
    """
    if flags.nilpotency_class <= 1:
        return f"{group.order**2 * len(_powers(group))} hypothesis instances", None
    rows, elems = group.rows, group.elements()
    checked = 0
    for a, weight, b, n, power in _centralizing(group):
        if power[rows[a][b]] != rows[power[a]][power[b]]:
            return "power-abelian conclusion failed", f"a={elems[a]}, b={elems[b]}, n={n}"
        checked += weight
    return f"{checked} hypothesis instances", None


def check_class_p_commutator_equivalence(group: PcGroup, flags: GroupFlags) -> Outcome:
    """On groups of class exactly p: the three vanishing conditions
    [b,a]^{p^n} = 1, [b,a^{p^n}] = 1, [b^{p^n},a] = 1 are pairwise equivalent.
    Each pair checks N instances, N = ``len(_powers)``.
    """
    rows, inv = group.rows, group.inverses
    pows = _powers(group)
    for a, _ in _classes(group):
        for b in range(group.order):
            comm = _commutator(rows, inv, b, a)
            for n, power in pows:
                bad = _equivalence_counterexample(group, power, a, b, comm, n)
                if bad is not None:
                    return "equivalence failed", bad
    return f"{group.order**2 * len(pows)} instances", None


def check_commutator_order_bound(group: PcGroup, flags: GroupFlags) -> Outcome:
    """On groups of class exactly p: every right-normed commutator of weight
    <= 3 with at least one slot equal to a (other slots over the generators)
    has order at most the order of a modulo the center.

    This sweeps every a: the other slots are the fixed pc generators, so the
    law is not invariant under conjugating a alone.
    """
    p = group.pres.prime
    rows, inv = group.rows, group.inverses
    elems, orders = group.elements(), group.element_orders
    center = group.center().elements
    gens = [group.position(g) for g in group.generators()]
    checked = 0
    for a in range(group.order):
        bound = p ** group.pth_steps(a, center)
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
            c = seq[-1]
            for x in reversed(seq[:-1]):
                c = _commutator(rows, inv, x, c)
            if orders[c] > bound:
                slots = tuple(elems[x] for x in seq)
                return (
                    "commutator order exceeds bound",
                    f"a={elems[a]}, slots={slots}, bound={bound}",
                )
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
    rows, inv, elems = group.rows, group.inverses, group.elements()
    # n -> [index of x^C(3^n, 3)]; x has 3-power order, so C(3^n, 3) is
    # reduced modulo it and walked down x's row
    orders = group.element_orders
    binomial_pows = {}
    for n, _ in _powers(group):
        k = math.comb(3**n, 3)
        powers = []
        for x, row in enumerate(rows):
            y = 0
            for _ in range(k % orders[x]):
                y = row[y]
            powers.append(y)
        binomial_pows[n] = powers

    checked = 0
    for a, weight, h, n, power in _centralizing(group):
        c = _commutator(rows, inv, h, a)
        t = _commutator(rows, inv, a, _commutator(rows, inv, a, c))
        if rows[binomial_pows[n][t]][power[c]] != 0:
            return "congruence failed", f"a={elems[a]}, h={elems[h]}, n={n}"
        checked += weight
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
        extra = min(subgroup - power_set)
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
