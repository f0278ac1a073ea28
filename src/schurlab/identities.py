"""Combinatorics of collection exponents: the alpha sums, the formal symbol
calculus on weight-(p+1) commutators, and the lemma-verification dispatcher.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from . import commexpr, freenil
from .commexpr import parse_expr
from .freenil import (
    BinomialPoly,
    FreenilError,
    HallBasis,
    TruncatedSeries,
    expansion_exponents,
    fit_binomial,
    group_commutator,
    normal_form,
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
# combinations form a free abelian group.  A symbol is stored as the tuple
# (x_{p-1}, ..., x_1) over the alphabet "ab".


@dataclass(frozen=True)
class FormalSum:
    length: int
    terms: tuple[tuple[tuple[str, ...], int], ...]  # sorted, coefficients != 0

    @classmethod
    def from_dict(cls, length: int, d: dict[tuple[str, ...], int]) -> "FormalSum":
        for t in d:
            if len(t) != length or any(x not in "ab" for x in t):
                raise IdentityError(f"bad symbol {t!r}")
        return cls(length, tuple(sorted((t, c) for t, c in d.items() if c)))

    def as_dict(self) -> dict[tuple[str, ...], int]:
        return dict(self.terms)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        if self.length != other.length:
            raise IdentityError("lengths differ")
        d = self.as_dict()
        for t, c in other.terms:
            d[t] = d.get(t, 0) + c
        return FormalSum.from_dict(self.length, d)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

    def scale(self, k: int) -> "FormalSum":
        return FormalSum.from_dict(self.length, {t: k * c for t, c in self.terms})

    def is_zero(self) -> bool:
        return not self.terms


def symbols_with_b_count(p: int, r: int) -> list[tuple[str, ...]]:
    """S_r: the symbols with exactly r slots equal to b (|S_r| = C(p-1, r))."""
    out = []
    for positions in itertools.combinations(range(p - 1), r):
        t = ["a"] * (p - 1)
        for pos in positions:
            t[pos] = "b"
        out.append(tuple(t))
    return out


def e_r(p: int, r: int) -> FormalSum:
    return FormalSum.from_dict(p - 1, {t: 1 for t in symbols_with_b_count(p, r)})


def substitute_ab(s: FormalSum, p: int) -> FormalSum:
    """Replace a with ab: each a-slot independently stays a or becomes b
    (the inner [b, a] is unchanged since [b, ab] = [b, a])."""
    if s.length != p - 1:
        raise IdentityError("symbol length does not match p")
    out: dict[tuple[str, ...], int] = {}
    for t, c in s.terms:
        a_slots = [i for i, x in enumerate(t) if x == "a"]
        for flip in itertools.chain.from_iterable(
            itertools.combinations(a_slots, k) for k in range(len(a_slots) + 1)
        ):
            d = list(t)
            for i in flip:
                d[i] = "b"
            key = tuple(d)
            out[key] = out.get(key, 0) + c
    return FormalSum.from_dict(p - 1, out)


def _project_onto_er(s: FormalSum, p: int) -> tuple[int, ...]:
    """Coefficients (on E_1..E_{p-1}) of a sum that is uniform on each S_r."""
    coeffs = []
    d = s.as_dict()
    for r in range(1, p):
        group = symbols_with_b_count(p, r)
        values = {d.get(t, 0) for t in group}
        if len(values) != 1:
            raise IdentityError(f"sum is not uniform on S_{r}")
        coeffs.append(values.pop())
    leftover = d.get(tuple("a" * (p - 1)), 0)
    if leftover:
        raise IdentityError("unexpected E_0 component")
    return tuple(coeffs)


def er_chain(p: int) -> list[tuple[int, ...]]:
    """Iterate substitute-then-cancel starting from E_1 E_2 ... E_{p-1} = 1.

    Returns the coefficient vectors on (E_1, ..., E_{p-1}); step m has
    coefficient alpha_m(k) on E_k for k >= m, and the final vector is
    (0, ..., 0, (p-1)!)."""
    if p < 3 or not _is_odd_prime(p):
        raise IdentityError("p must be an odd prime")
    current = FormalSum.from_dict(p - 1, {})
    for r in range(1, p):
        current = current + e_r(p, r)
    chain = [_project_onto_er(current, p)]
    for _m in range(2, p):
        current = substitute_ab(current, p) - current
        chain.append(_project_onto_er(current, p))
    return chain


def _is_odd_prime(p: int) -> bool:
    from .pcgroup import is_prime

    return p % 2 == 1 and is_prime(p)


# -- lemma dispatcher -----------------------------------------------------------


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    params: dict
    passed: bool
    counterexample: Optional[str] = None
    detail: str = ""


def _gen(k, c, i):
    return TruncatedSeries.generator(k, c, i)


def _rcomm(series: Sequence[TruncatedSeries]) -> TruncatedSeries:
    """Right-normed commutator of a list of series."""
    acc = series[-1]
    for s in reversed(series[:-1]):
        acc = group_commutator(s, acc)
    return acc


def _conj(x: TruncatedSeries, w: TruncatedSeries) -> TruncatedSeries:
    return x * w * x.inverse()


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


def _l41_layers(k: int, c: int) -> list[tuple[int, list[TruncatedSeries]]]:
    """Factor layers of the class-5 collection product, ascending weight."""
    a = _gen(k, c, 0)
    b = _gen(k, c, 1)
    ba = group_commutator(b, a)

    def rc(*xs):
        return _rcomm(list(xs))

    return [
        (1, [a, b]),
        (2, [ba]),
        (3, [rc(a, b, a), rc(b, b, a)]),
        (4, [rc(a, a, b, a), rc(a, b, b, a), rc(b, b, b, a)]),
        (
            5,
            [
                rc(ba, a, b, a),
                rc(ba, b, b, a),
                rc(a, a, a, b, a),
                rc(a, a, b, b, a),
                rc(a, b, b, b, a),
                rc(b, b, b, b, a),
            ],
        ),
    ]


def collection_exponents_class5(n: int) -> dict[str, int]:
    """Exponents of the paper-ordered class-5 collection factors of (ab)^n,
    recovered by peeling the product from the right."""
    k, c = 2, 5
    a = _gen(k, c, 0)
    b = _gen(k, c, 1)
    s = (a * b).power(n)
    layers = _l41_layers(k, c)
    exps = expansion_exponents(s, layers, side="right")
    names = [
        ["a", "b"],
        ["[b,a]"],
        ["[a,b,a]", "[b,b,a]"],
        ["[a,a,b,a]", "[a,b,b,a]", "[b,b,b,a]"],
        [
            "[[b,a],a,b,a]",
            "[[b,a],b,b,a]",
            "[a,a,a,b,a]",
            "[a,a,b,b,a]",
            "[a,b,b,b,a]",
            "[b,b,b,b,a]",
        ],
    ]
    out = {}
    for layer_names, layer_exps in zip(names, exps):
        for name, e in zip(layer_names, layer_exps):
            out[name] = e
    return out


def _check_l41(part: str, n_max: int) -> LemmaReport:
    if part == "i":
        lhs, rhs, k, c = "(a b)^n", L41_I_RHS, 2, 5
        binding = None
    elif part == "ii":
        lhs, rhs, k, c = "(a b)^n", L41_II_RHS, 2, 6
        binding = freenil.default_binding(2, 6)
        # a must lie in the commutator subgroup: bind it to [b', a'] of the
        # free group on two letters
        x = _gen(2, 6, 0)
        y = _gen(2, 6, 1)
        binding = {"a": group_commutator(y, x), "b": y}
    elif part == "iii":
        lhs, rhs, k, c = "[b, a^n]", L41_III_RHS, 2, 6
        binding = None
    else:
        raise IdentityError(f"unknown part {part!r}")
    report = verify_identity(
        parse_expr(lhs), parse_expr(rhs), k, c, range(1, n_max + 1), binding=binding
    )
    return LemmaReport(
        lemma_id=f"L4.1{part}",
        params={"n_max": n_max},
        passed=report.passed,
        counterexample=None if report.passed else str(report.counterexample),
    )


def _check_l27() -> LemmaReport:
    failures = []
    # (i): the two expansion identities, class 4 on 3 letters, several bindings
    for c in (3, 4):
        base = freenil.default_binding(3, c)
        x, y, z = base["a"], base["b"], base["c"]
        bindings = [
            {"g": x, "g1": y, "h": z},
            {"g": x * y, "g1": z * x, "h": y},
            {"g": group_commutator(x, y), "g1": z, "h": x * z},
        ]
        for bind in bindings:
            g, g1, h = bind["g"], bind["g1"], bind["h"]
            lhs = group_commutator(g * g1, h)
            rhs = (
                _rcomm([g, g1, h])
                * group_commutator(g1, h)
                * group_commutator(g, h)
            )
            if lhs != rhs:
                failures.append(f"eq1 at class {c}")
            lhs2 = group_commutator(g, h * g1)
            rhs2 = (
                group_commutator(g, h)
                * _rcomm([h, g, g1])
                * group_commutator(g, g1)
            )
            if lhs2 != rhs2:
                failures.append(f"eq2 at class {c}")
    # (ii): ^x[y,z] = [y,z] when i+j+k >= c+1
    def pick(c, w, flavor=0):
        base = freenil.default_binding(2, c)
        a, b = base["a"], base["b"]
        if w == 1:
            return (a, b)[flavor % 2]
        ba = group_commutator(b, a)
        if w == 2:
            return ba
        return group_commutator(a, ba)

    for c, wi, wj, wk in ((4, 2, 1, 2), (4, 1, 2, 2), (5, 2, 2, 2)):
        x, y, z = pick(c, wi), pick(c, wj, 1), pick(c, wk)
        comm = group_commutator(y, z)
        if _conj(x, comm) != comm:
            failures.append(f"(ii) weights ({wi},{wj},{wk}), c={c}")
    # (iii): [x,y] and [z,u] commute when i+j+k+l >= c+1
    for c, wi, wj, wk, wl in ((4, 1, 2, 1, 2), (4, 2, 1, 1, 2), (5, 1, 2, 2, 1)):
        x, y = pick(c, wi), pick(c, wj, 1)
        z, u = pick(c, wk, 1), pick(c, wl)
        left = group_commutator(x, y) * group_commutator(z, u)
        right = group_commutator(z, u) * group_commutator(x, y)
        if left != right:
            failures.append(f"(iii) weights ({wi},{wj},{wk},{wl}), c={c}")
    return LemmaReport(
        lemma_id="L2.7",
        params={},
        passed=not failures,
        counterexample="; ".join(failures) or None,
    )


def _check_l28() -> LemmaReport:
    failures = []

    # (i)/(ii) at r=2, class 5, weights (1,1,2,2); (iii) at r=2 with ab between
    base = freenil.default_binding(2, 5)
    x, y = base["a"], base["b"]
    yx = group_commutator(y, x)
    a, b = x, y
    g2, g1 = yx, yx
    lhs = _rcomm([a * b, g2, g1])
    rhs = _rcomm([a, g2, g1]) * _rcomm([b, g2, g1])
    if lhs != rhs:
        failures.append("(i) r=2 c=5")
    lhs = _rcomm([g2, g1, a * b])
    rhs = _rcomm([g2, g1, a]) * _rcomm([g2, g1, b])
    if lhs != rhs:
        failures.append("(ii) r=2 c=5")
    lhs = _rcomm([g2, a * b, g1])
    rhs = _rcomm([g2, a, g1]) * _rcomm([g2, b, g1])
    if lhs != rhs:
        failures.append("(iii) r=2 c=5")

    # r=3, class 4, all weight one on 3 letters
    base3 = freenil.default_binding(3, 4)
    x, y, z = base3["a"], base3["b"], base3["c"]
    for a, b, gs in [
        (x, y, (z, x, y)),
        (y, z, (x, x, z)),
    ]:
        lhs = _rcomm([a * b, *gs])
        rhs = _rcomm([a, *gs]) * _rcomm([b, *gs])
        if lhs != rhs:
            failures.append("(i) r=3 c=4")
        lhs = _rcomm([*gs, a * b])
        rhs = _rcomm([*gs, a]) * _rcomm([*gs, b])
        if lhs != rhs:
            failures.append("(ii) r=3 c=4")
        g3, g2, g1 = gs
        lhs = _rcomm([g3, g2, a * b, g1])
        rhs = _rcomm([g3, g2, a, g1]) * _rcomm([g3, g2, b, g1])
        if lhs != rhs:
            failures.append("(iii) r=3 c=4 inner")
    return LemmaReport(
        lemma_id="L2.8",
        params={},
        passed=not failures,
        counterexample="; ".join(failures) or None,
    )


def _check_c29() -> LemmaReport:
    """Weight-c commutators are multiplicative in each coordinate (class c)."""
    failures = []
    c = 4
    base = freenil.default_binding(3, c)
    x, y, z = base["a"], base["b"], base["c"]
    slots = [x, y, x, z]
    for pos in range(c):
        for a, b in [(x, y), (y * z, x)]:
            with_prod = list(slots)
            with_prod[pos] = a * b
            first = list(slots)
            first[pos] = a
            second = list(slots)
            second[pos] = b
            if _rcomm(with_prod) != _rcomm(first) * _rcomm(second):
                failures.append(f"slot {pos}")
    return LemmaReport(
        lemma_id="C2.9",
        params={"c": c},
        passed=not failures,
        counterexample="; ".join(failures) or None,
    )


_L210_CASES = [(1, 1, 3), (1, 1, 4), (1, 2, 5), (2, 1, 5)]


def _bind_weight(k: int, c: int, w: int, flavor: int = 0) -> TruncatedSeries:
    x = _gen(k, c, 0)
    y = _gen(k, c, 1)
    if w == 1:
        return (x, y)[flavor % 2]
    if w == 2:
        return group_commutator(y, x)
    raise IdentityError(f"unsupported binding weight {w}")


def _check_l210(part: str, n_max: int = 15) -> LemmaReport:
    failures = []
    for i, j, c in _L210_CASES:
        a = _bind_weight(2, c, i, flavor=0)
        b = _bind_weight(2, c, j, flavor=1)
        if i == 1 and j == 1:
            a, b = _gen(2, c, 0), _gen(2, c, 1)
        for n in range(1, n_max + 1):
            if part == "i":
                if not (2 * i + 3 * j >= c + 1):
                    continue
                lhs = group_commutator(b.power(n), a)
                rhs = TruncatedSeries.one(2, c)
                for t in range(n, 1, -1):
                    rhs = rhs * _rcomm([b] * t + [a]).power(math.comb(n, t))
                rhs = rhs * group_commutator(b, a).power(n)
                if lhs != rhs:
                    failures.append(f"(i) (i,j,c)=({i},{j},{c}) n={n}")
                # "moreover": truncate at t = r-1 where i + r j >= c+1
                r = -(-(c + 1 - i) // j)
                rhs2 = TruncatedSeries.one(2, c)
                for t in range(r - 1, 1, -1):
                    rhs2 = rhs2 * _rcomm([b] * t + [a]).power(math.comb(n, t))
                rhs2 = rhs2 * group_commutator(b, a).power(n)
                if lhs != rhs2:
                    failures.append(f"(i) moreover (i,j,c)=({i},{j},{c}) n={n}")
            else:
                if not (3 * i + 2 * j >= c + 1):
                    continue
                lhs = group_commutator(b, a.power(n))
                rhs = TruncatedSeries.one(2, c)
                for t in range(n - 1, 0, -1):
                    rhs = rhs * _rcomm([a] * t + [b, a]).power(math.comb(n, t + 1))
                rhs = rhs * group_commutator(b, a).power(n)
                if lhs != rhs:
                    failures.append(f"(ii) (i,j,c)=({i},{j},{c}) n={n}")
                r = -(-(c + 1 - j) // i)
                rhs2 = TruncatedSeries.one(2, c)
                for t in range(r - 2, 0, -1):
                    rhs2 = rhs2 * _rcomm([a] * t + [b, a]).power(math.comb(n, t + 1))
                rhs2 = rhs2 * group_commutator(b, a).power(n)
                if lhs != rhs2:
                    failures.append(f"(ii) moreover (i,j,c)=({i},{j},{c}) n={n}")
    return LemmaReport(
        lemma_id=f"L2.10{part}",
        params={"cases": _L210_CASES, "n_max": n_max},
        passed=not failures,
        counterexample="; ".join(failures[:4]) or None,
    )


def _check_l212(n_max: int = 15) -> LemmaReport:
    """Every basis exponent of (ab)^n is a binomial polynomial of degree
    bounded by the commutator weight."""
    k, c = 2, 5
    basis = HallBasis(k, c)
    a = _gen(k, c, 0)
    b = _gen(k, c, 1)
    samples = {n: normal_form((a * b).power(n), basis) for n in range(1, n_max + 1)}
    failures = []
    for pos, bc in enumerate(basis.commutators):
        try:
            fit_binomial(lambda n, p=pos: samples[n][p], bc.weight)
        except FreenilError as exc:
            failures.append(f"{bc}: {exc}")
    return LemmaReport(
        lemma_id="L2.12",
        params={"k": k, "c": c},
        passed=not failures,
        counterexample="; ".join(failures[:3]) or None,
    )


def _check_r213(t_max: int = 4) -> LemmaReport:
    """The collection exponent of [_t b, a] in (ab)^n is C(n, t+1)."""
    failures = []
    cache: dict[int, dict[str, int]] = {}

    def exps(n: int) -> dict[str, int]:
        if n not in cache:
            cache[n] = collection_exponents_class5(n)
        return cache[n]

    for t in range(1, t_max + 1):
        name = "[" + ",".join(["b"] * t + ["a"]) + "]"
        poly = fit_binomial(lambda n: exps(n)[name], t + 1)
        if poly.as_dict() != {t + 1: 1}:
            failures.append(f"t={t}: got {poly}")
    return LemmaReport(
        lemma_id="R2.13",
        params={"t_max": t_max},
        passed=not failures,
        counterexample="; ".join(failures) or None,
    )


def _check_l38(n_max: int = 12) -> LemmaReport:
    failures = []
    for n in range(3, n_max + 1):
        for m in range(3, n + 1):
            lhs = alpha(m, n)
            rhs = sum(math.comb(n, k) * alpha(m - 1, k) for k in range(m - 1, n))
            if lhs != rhs:
                failures.append(f"(m,n)=({m},{n})")
    return LemmaReport(
        lemma_id="L3.8",
        params={"n_max": n_max},
        passed=not failures,
        counterexample="; ".join(failures) or None,
    )


def _check_t39chain(primes=(3, 5, 7, 11)) -> LemmaReport:
    failures = []
    for p in primes:
        chain = er_chain(p)
        final = chain[-1]
        expected = tuple([0] * (p - 2) + [math.factorial(p - 1)])
        if final != expected:
            failures.append(f"p={p}: final {final}")
        for m, vec in enumerate(chain[1:], start=2):
            for k in range(1, p):
                want = alpha(m, k) if k >= m else 0
                if vec[k - 1] != want:
                    failures.append(f"p={p} m={m} k={k}: {vec[k - 1]} != {want}")
    return LemmaReport(
        lemma_id="T3.9chain",
        params={"primes": tuple(primes)},
        passed=not failures,
        counterexample="; ".join(failures[:4]) or None,
    )


LEMMA_IDS = (
    "L2.7",
    "L2.8",
    "C2.9",
    "L2.10i",
    "L2.10ii",
    "L2.12",
    "R2.13",
    "L3.8",
    "L4.1i",
    "L4.1ii",
    "L4.1iii",
    "T3.9chain",
)


def verify_collection_lemma(lemma_id: str, n_max: int = 20) -> LemmaReport:
    if lemma_id == "L2.7":
        return _check_l27()
    if lemma_id == "L2.8":
        return _check_l28()
    if lemma_id == "C2.9":
        return _check_c29()
    if lemma_id == "L2.10i":
        return _check_l210("i", min(n_max, 15))
    if lemma_id == "L2.10ii":
        return _check_l210("ii", min(n_max, 15))
    if lemma_id == "L2.12":
        return _check_l212(min(n_max, 15))
    if lemma_id == "R2.13":
        return _check_r213()
    if lemma_id == "L3.8":
        return _check_l38(min(n_max, 12))
    if lemma_id == "L4.1i":
        return _check_l41("i", n_max)
    if lemma_id == "L4.1ii":
        return _check_l41("ii", n_max)
    if lemma_id == "L4.1iii":
        return _check_l41("iii", n_max)
    if lemma_id == "T3.9chain":
        return _check_t39chain()
    raise IdentityError(f"unknown lemma id {lemma_id!r}")
