"""Combinatorics of collection exponents: the alpha sums, the formal symbol
calculus on weight-(p+1) commutators, and the lemma-verification dispatcher.

A sum of weight-(p+1) symbols is the list of its 2^(p-1) integer
coefficients, indexed by the mask of the symbol's b-slots; Theorem 3.9's
a -> ab substitution is a subset-sum pass over that list.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import add, sub
from typing import Callable, NamedTuple, Optional

from . import freenil
from .commexpr import parse_expr
from .freenil import (
    FreenilError,
    HallBasis,
    TruncatedSeries,
    expansion_exponents,
    fit_binomial,
    group_commutator,
    normal_form,
    right_normed,
    verify_identity,
)


class IdentityError(Exception):
    pass


@lru_cache(maxsize=None)
def alpha(m: int, n: int) -> int:
    """Nested binomial sum over 1 <= i_1 < ... < i_{m-1} < n of
    C(n, i_{m-1}) C(i_{m-1}, i_{m-2}) ... C(i_2, i_1)."""
    if not 2 <= m <= n:
        raise IdentityError(f"alpha requires 2 <= m <= n, got m={m}, n={n}")
    total = 0
    for chain in itertools.combinations(range(1, n), m - 1):
        term = math.comb(n, chain[-1])
        for hi, lo in zip(chain[1:], chain[:-1]):
            term *= math.comb(hi, lo)
        total += term
    return total


# -- formal commutator-symbol calculus --------------------------------------------
#
# Symbols are the right-normed commutators [x_{p-1}, ..., x_1, [b, a]] with
# each x_i in {a, b}; they commute with one another at weight p+1, so integer
# combinations form a free abelian group.  A sum of symbols is the list of its
# 2^(p-1) coefficients: entry ``mask`` is the coefficient of the symbol whose
# b-slots are the set bits of ``mask`` (slot 0, x_{p-1}, is the top bit).  S_r,
# the symbols with exactly r slots equal to b, is the set of masks with r bits
# set, and E_r is the sum over S_r.


def substitute_ab(coeffs: list[int], p: int) -> list[int]:
    """Replace a with ab: each a-slot independently stays a or becomes b
    (the inner [b, a] is unchanged since [b, ab] = [b, a]).

    A symbol with b-position set S goes to every superset of S, so the
    result is the subset-sum (zeta) transform of the coefficients over the
    2^(p-1) masks: one pass per slot, (p-1) 2^(p-2) additions in all."""
    length = p - 1
    if length < 0 or len(coeffs) != 1 << length:
        raise IdentityError(f"p = {p} needs 2^{length} coefficients, got {len(coeffs)}")
    coeffs = list(coeffs)
    half = len(coeffs) // 2
    for _ in range(length):
        # The top slot: a mask without it also reaches the mask with it.  Then
        # rotate every mask left by one bit (interleave the halves), so that
        # each slot comes to the top once and the last rotation restores the
        # order.
        low = coeffs[:half]
        coeffs[1::2] = map(add, low, coeffs[half:])
        coeffs[0::2] = low
    return coeffs


def _project_onto_er(coeffs: list[int], p: int) -> tuple[int, ...]:
    """Coefficients (on E_1..E_{p-1}) of a sum that is uniform on each S_r."""
    values: list[set[int]] = [set() for _ in range(p)]
    for mask, c in enumerate(coeffs):
        values[mask.bit_count()].add(c)
    for r in range(1, p):
        if len(values[r]) != 1:
            raise IdentityError(f"sum is not uniform on S_{r}")
    if coeffs[0]:
        raise IdentityError("unexpected E_0 component")
    return tuple(v.pop() for v in values[1:])


def er_chain(p: int) -> list[tuple[int, ...]]:
    """Iterate substitute-then-cancel starting from E_1 E_2 ... E_{p-1} = 1.

    Returns the coefficient vectors on (E_1, ..., E_{p-1}); step m has
    coefficient alpha_m(k) on E_k for k >= m, and the final vector is
    (0, ..., 0, (p-1)!)."""
    if p < 3 or not _is_odd_prime(p):
        raise IdentityError("p must be an odd prime")
    current = [0] + [1] * ((1 << (p - 1)) - 1)
    chain = [_project_onto_er(current, p)]
    for _m in range(2, p):
        current = list(map(sub, substitute_ab(current, p), current))
        chain.append(_project_onto_er(current, p))
    return chain


def _is_odd_prime(p: int) -> bool:
    from .pcgroup import is_prime

    return p % 2 == 1 and is_prime(p)


# -- lemma dispatcher -----------------------------------------------------------


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    passed: bool
    counterexample: Optional[str] = None
    detail: str = ""


def _expect(failures: list[str], label: str, lhs, rhs) -> None:
    if lhs != rhs:
        failures.append(label)


def _split_slot(
    before: list[TruncatedSeries],
    after: list[TruncatedSeries],
    x: TruncatedSeries,
    y: TruncatedSeries,
) -> tuple[TruncatedSeries, TruncatedSeries]:
    """Both sides of [..., xy, ...] = [..., x, ...][..., y, ...] for the
    right-normed commutator with ``before`` and ``after`` in the other slots."""
    return (
        right_normed([*before, x * y, *after]),
        right_normed([*before, x, *after]) * right_normed([*before, y, *after]),
    )


def _gen(k, c, i):
    return TruncatedSeries.generator(k, c, i)


def _conj(x: TruncatedSeries, w: TruncatedSeries) -> TruncatedSeries:
    return x * w * x.inverse()


def _bind_weight(c: int, w: int, flavor: int = 0) -> TruncatedSeries:
    """An element of weight w in the free class-c group on a, b: a or b
    (chosen by ``flavor``) at weight 1, [b, a] at 2 and [a, [b, a]] at 3."""
    a = _gen(2, c, 0)
    b = _gen(2, c, 1)
    if w == 1:
        return (a, b)[flavor % 2]
    ba = group_commutator(b, a)
    if w == 2:
        return ba
    if w == 3:
        return group_commutator(a, ba)
    raise IdentityError(f"unsupported binding weight {w}")


# The class-5 collection of (ab)^n with conjugation on the left; the product
# is ordered weight-descending with a^n b^n at the right end.
L41_I_RHS = (
    "[[b,a],a,b,a]^(6C(n,3)+18C(n,4)+12C(n,5)) "
    "[[b,a],b,b,a]^(C(n,3)+7C(n,4)+6C(n,5)) "
    "[a,a,a,b,a]^(3C(n,4)+4C(n,5)) "
    "[a,a,b,b,a]^(C(n,3)+6C(n,4)+6C(n,5)) "
    "[a,b,b,b,a]^(3C(n,4)+4C(n,5)) "
    "[b,b,b,b,a]^C(n,5) "
    "[a,a,b,a]^(2C(n,3)+3C(n,4)) "
    "[a,b,b,a]^(2C(n,3)+3C(n,4)) "
    "[b,b,b,a]^C(n,4) "
    "[a,b,a]^(C(n,2)+2C(n,3)) "
    "[b,b,a]^C(n,3) "
    "[b,a]^C(n,2) a^n b^n"
)

# Class 6 with a in the commutator subgroup: only six commutator terms survive.
L41_II_RHS = (
    "[b,b,b,b,a]^C(n,5) "
    "[a,b,b,a]^(2C(n,3)+3C(n,4)) "
    "[b,b,b,a]^C(n,4) "
    "[a,b,a]^(C(n,2)+2C(n,3)) "
    "[b,b,a]^C(n,3) "
    "[b,a]^C(n,2) a^n b^n"
)

# Class-6 expansion of [b, a^n].
L41_III_RHS = (
    "[a,a,a,a,b,a]^C(n,5) "
    "[[b,a],a,a,b,a]^(2C(n,3)+3C(n,4)) "
    "[a,a,a,b,a]^C(n,4) "
    "[[b,a],a,b,a]^(C(n,2)+2C(n,3)) "
    "[a,a,b,a]^C(n,3) "
    "[a,b,a]^C(n,2) [b,a]^n"
)

# The factors of the class-5 collection product, one tuple per weight 1..5.
L41_FACTORS = (
    ("a", "b"),
    ("[b,a]",),
    ("[a,b,a]", "[b,b,a]"),
    ("[a,a,b,a]", "[a,b,b,a]", "[b,b,b,a]"),
    (
        "[[b,a],a,b,a]",
        "[[b,a],b,b,a]",
        "[a,a,a,b,a]",
        "[a,a,b,b,a]",
        "[a,b,b,b,a]",
        "[b,b,b,b,a]",
    ),
)


@lru_cache(maxsize=None)
def _l41_layers() -> tuple[tuple[int, tuple[TruncatedSeries, ...]], ...]:
    """Factor layers of the class-5 collection product, ascending weight."""
    binding = freenil.default_binding(2, 5)
    memo: dict = {}
    return tuple(
        (w, tuple(parse_expr(name).evaluate(binding, memo=memo) for name in names))
        for w, names in enumerate(L41_FACTORS, start=1)
    )


def collection_exponents_class5(n: int) -> dict[str, int]:
    """Exponents of the paper-ordered class-5 collection factors of (ab)^n,
    recovered by peeling the product from the right."""
    s = (_gen(2, 5, 0) * _gen(2, 5, 1)).power(n)
    exps = expansion_exponents(s, _l41_layers(), side="right")
    return {
        name: e
        for names, layer in zip(L41_FACTORS, exps)
        for name, e in zip(names, layer)
    }


def _check_l41(part: str, ns: range) -> list[str]:
    binding = None
    if part == "i":
        lhs, rhs, c = "(a b)^n", L41_I_RHS, 5
    elif part == "ii":
        lhs, rhs, c = "(a b)^n", L41_II_RHS, 6
        # a must lie in the commutator subgroup: bind it to [b', a'] of the
        # free group on two letters
        x = _gen(2, 6, 0)
        y = _gen(2, 6, 1)
        binding = {"a": group_commutator(y, x), "b": y}
    else:  # "iii"
        lhs, rhs, c = "[b, a^n]", L41_III_RHS, 6
    report = verify_identity(parse_expr(lhs), parse_expr(rhs), 2, c, ns, binding=binding)
    return [] if report.passed else [report.counterexample[1]]  # (n, label)


def _check_l27() -> list[str]:
    failures: list[str] = []
    # (i): the two expansion identities, class 4 on 3 letters, several bindings
    for c in (3, 4):
        base = freenil.default_binding(3, c)
        x, y, z = base["a"], base["b"], base["c"]
        for g, g1, h in [(x, y, z), (x * y, z * x, y), (group_commutator(x, y), z, x * z)]:
            _expect(
                failures,
                f"eq1 at class {c}",
                group_commutator(g * g1, h),
                right_normed([g, g1, h]) * group_commutator(g1, h) * group_commutator(g, h),
            )
            _expect(
                failures,
                f"eq2 at class {c}",
                group_commutator(g, h * g1),
                group_commutator(g, h) * right_normed([h, g, g1]) * group_commutator(g, g1),
            )
    # (ii): ^x[y,z] = [y,z] when i+j+k >= c+1
    for c, wi, wj, wk in ((4, 2, 1, 2), (4, 1, 2, 2), (5, 2, 2, 2)):
        x, y, z = _bind_weight(c, wi), _bind_weight(c, wj, 1), _bind_weight(c, wk)
        comm = group_commutator(y, z)
        _expect(failures, f"(ii) weights ({wi},{wj},{wk}), c={c}", _conj(x, comm), comm)
    # (iii): [x,y] and [z,u] commute when i+j+k+l >= c+1
    for c, wi, wj, wk, wl in ((4, 1, 2, 1, 2), (4, 2, 1, 1, 2), (5, 1, 2, 2, 1)):
        x, y = _bind_weight(c, wi), _bind_weight(c, wj, 1)
        z, u = _bind_weight(c, wk, 1), _bind_weight(c, wl)
        _expect(
            failures,
            f"(iii) weights ({wi},{wj},{wk},{wl}), c={c}",
            group_commutator(x, y) * group_commutator(z, u),
            group_commutator(z, u) * group_commutator(x, y),
        )
    return failures


def _check_l28() -> list[str]:
    failures: list[str] = []

    # (i)/(ii) at r=2, class 5, weights (1,1,2,2); (iii) at r=2 with ab between
    base = freenil.default_binding(2, 5)
    a, b = base["a"], base["b"]
    g = group_commutator(b, a)
    _expect(failures, "(i) r=2 c=5", *_split_slot([], [g, g], a, b))
    _expect(failures, "(ii) r=2 c=5", *_split_slot([g, g], [], a, b))
    _expect(failures, "(iii) r=2 c=5", *_split_slot([g], [g], a, b))

    # r=3, class 4, all weight one on 3 letters
    base3 = freenil.default_binding(3, 4)
    x, y, z = base3["a"], base3["b"], base3["c"]
    for a, b, gs in [
        (x, y, [z, x, y]),
        (y, z, [x, x, z]),
    ]:
        _expect(failures, "(i) r=3 c=4", *_split_slot([], gs, a, b))
        _expect(failures, "(ii) r=3 c=4", *_split_slot(gs, [], a, b))
        _expect(failures, "(iii) r=3 c=4 inner", *_split_slot(gs[:2], gs[2:], a, b))
    return failures


def _check_c29() -> list[str]:
    """Weight-c commutators are multiplicative in each coordinate (class c)."""
    failures: list[str] = []
    c = 4
    base = freenil.default_binding(3, c)
    x, y, z = base["a"], base["b"], base["c"]
    slots = [x, y, x, z]
    for pos in range(c):
        for a, b in [(x, y), (y * z, x)]:
            _expect(failures, f"slot {pos}", *_split_slot(slots[:pos], slots[pos + 1 :], a, b))
    return failures


_L210_CASES = [(1, 1, 3), (1, 1, 4), (1, 2, 5), (2, 1, 5)]


def _check_l210(part: str, ns: range) -> list[str]:
    """(i) [b^n, a] and (ii) [b, a^n], each checked against
    prod_{t=top..1} [_t x, b, a]^C(n,t+1) [b,a]^n with x the letter raised to
    the n: top = n-1 in full, and r-2 in the "moreover" form."""
    failures: list[str] = []
    for i, j, c in _L210_CASES:
        a = _bind_weight(c, i)
        b = _bind_weight(c, j, flavor=1)
        x, wx, wy = (b, j, i) if part == "i" else (a, i, j)
        if 3 * wx + 2 * wy < c + 1:
            continue
        r = -(-(c + 1 - wy) // wx)  # least r with wy + r wx >= c+1
        ba = group_commutator(b, a)
        terms = [ba]  # terms[t] = [_t x, b, a] = [x, terms[t-1]]
        for _ in range(max(ns[-1] - 1, r - 2)):
            term = group_commutator(x, terms[-1])
            if term.is_one():
                break  # weight above c: every later term is 1 too
            terms.append(term)
        for n in ns:
            if part == "i":
                lhs = group_commutator(b.power(n), a)
            else:
                lhs = group_commutator(b, a.power(n))
            for form, top in (("", n - 1), (" moreover", r - 2)):
                rhs = TruncatedSeries.one(2, c)
                for t in range(min(top, len(terms) - 1), 0, -1):  # later terms are 1
                    rhs = rhs * terms[t].power(math.comb(n, t + 1))
                rhs = rhs * ba.power(n)
                _expect(failures, f"({part}){form} (i,j,c)=({i},{j},{c}) n={n}", lhs, rhs)
    return failures


def _check_l212() -> list[str]:
    """Every basis exponent of (ab)^n is a binomial polynomial of degree
    bounded by the commutator weight."""
    k, c = 2, 5
    basis = HallBasis(k, c)
    ab = _gen(k, c, 0) * _gen(k, c, 1)
    sample = lru_cache(maxsize=None)(lambda n: normal_form(ab.power(n), basis))
    failures = []
    for pos, bc in enumerate(basis.commutators):
        try:
            fit_binomial(lambda n, p=pos: sample(n)[p], bc.weight)
        except FreenilError as exc:
            failures.append(f"{bc}: {exc}")
    return failures


def _check_r213(t_max: int = 4) -> list[str]:
    """The collection exponent of [_t b, a] in (ab)^n is C(n, t+1)."""
    failures = []
    exps = lru_cache(maxsize=None)(collection_exponents_class5)
    for t in range(1, t_max + 1):
        name = "[" + ",".join(["b"] * t + ["a"]) + "]"
        poly = fit_binomial(lambda n: exps(n)[name], t + 1)
        _expect(failures, f"t={t}: got {poly}", poly.as_dict(), {t + 1: 1})
    return failures


def _check_l38(ns: range) -> list[str]:
    failures = []
    for n in ns:
        for m in range(3, n + 1):
            rhs = sum(math.comb(n, k) * alpha(m - 1, k) for k in range(m - 1, n))
            _expect(failures, f"(m,n)=({m},{n})", alpha(m, n), rhs)
    return failures


def _check_t39chain(primes=(3, 5, 7, 11)) -> list[str]:
    failures = []
    for p in primes:
        chain = er_chain(p)
        final = chain[-1]
        expected = tuple([0] * (p - 2) + [math.factorial(p - 1)])
        _expect(failures, f"p={p}: final {final}", final, expected)
        for m, vec in enumerate(chain[1:], start=2):
            for k in range(1, p):
                want = alpha(m, k) if k >= m else 0
                _expect(failures, f"p={p} m={m} k={k}: {vec[k - 1]} != {want}", vec[k - 1], want)
    return failures


class _Lemma(NamedTuple):
    check: Callable[..., list[str]]  # returns the labels of the failed cases
    n_range: Optional[tuple[int, float]] = None  # (first n, largest n) checked
    shown: Optional[int] = None  # failure labels kept in the counterexample


_LEMMAS = {
    "L2.7": _Lemma(_check_l27),
    "L2.8": _Lemma(_check_l28),
    "C2.9": _Lemma(_check_c29),
    "L2.10i": _Lemma(partial(_check_l210, "i"), (1, 15), shown=4),
    "L2.10ii": _Lemma(partial(_check_l210, "ii"), (1, 15), shown=4),
    "L2.12": _Lemma(_check_l212, shown=3),
    "R2.13": _Lemma(_check_r213),
    "L3.8": _Lemma(_check_l38, (3, 12)),
    "L4.1i": _Lemma(partial(_check_l41, "i"), (1, math.inf)),
    "L4.1ii": _Lemma(partial(_check_l41, "ii"), (1, math.inf)),
    "L4.1iii": _Lemma(partial(_check_l41, "iii"), (1, math.inf)),
    "T3.9chain": _Lemma(_check_t39chain, shown=4),
}

LEMMA_IDS = tuple(_LEMMAS)


def verify_collection_lemma(lemma_id: str, n_max: int = 20) -> LemmaReport:
    """Run one lemma's check; a lemma with an n range is checked for n from
    its first n up to min(n_max, its largest n)."""
    try:
        lemma = _LEMMAS[lemma_id]
    except KeyError:
        raise IdentityError(f"unknown lemma id {lemma_id!r}") from None
    if lemma.n_range is None:
        failures = lemma.check()
    else:
        first, largest = lemma.n_range
        last = min(n_max, largest)
        if last < first:
            raise IdentityError(f"{lemma_id} checks n >= {first}; n_max = {n_max} leaves no n")
        failures = lemma.check(range(first, last + 1))
    return LemmaReport(
        lemma_id=lemma_id,
        passed=not failures,
        counterexample="; ".join(failures[: lemma.shown]) or None,
    )
