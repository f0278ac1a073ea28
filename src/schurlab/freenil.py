"""Free nilpotent groups of class c on k letters via truncated integer series.

A letter maps to 1 + x_i in the ring of noncommutative integer polynomials
truncated at total degree c (the Magnus embedding).  Group elements become
invertible series with constant term 1; identities between commutator words
are verified by comparing series exactly.

Monomials of degree d are packed as base-k integers; a series keeps one
coefficient dict per degree, which makes truncated multiplication cheap.

Powers come from the binomial series: with u = s - 1, which has no constant
term, u^{c+1} = 0 and s^n = sum_{t<=c} C(n, t) u^t exactly, for every integer
n.  A series computes u, u^2, ..., u^c once, on its first power or inverse;
after that every power of it is a linear combination, with no products, so a
power costs the same for n = 3 and n = 3000.

Few products are made.  A product with the series 1 returns the other
operand (series are immutable).  A commutator is one right division:
[u, v] = uv (vu)^{-1} = 1 + Z with Z vu = uv - vu, solved for Z degree by
degree, so it costs two products and no inverse.  An expansion into ordered
factors peels each layer off one factor at a time, as f^{-e}, rather than
building the layer's product and inverting it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .intlinalg import IntegerSolver


class FreenilError(Exception):
    pass


class NonIntegralExpansion(FreenilError):
    pass


_ONE_PART = {0: 1}  # the degree-0 part of the series 1


class TruncatedSeries:
    """An element of the degree-c truncation of Z<x_0, ..., x_{k-1}>.

    Series are immutable after construction: no method changes ``parts`` of
    an existing series, and callers must not either, because a series keeps
    the powers of s - (constant term) it has computed (``_upowers``).
    ``copy()``, ``+`` and ``-`` return new series without those powers.
    """

    __slots__ = ("k", "c", "parts", "_upowers")

    def __init__(self, k: int, c: int, parts: Optional[list[dict[int, int]]] = None):
        self.k = k
        self.c = c
        if parts is None:
            parts = [dict() for _ in range(c + 1)]
        self.parts = parts
        self._upowers: Optional[tuple["TruncatedSeries", ...]] = None

    @classmethod
    def one(cls, k: int, c: int) -> "TruncatedSeries":
        s = cls(k, c)
        s.parts[0][0] = 1
        return s

    @classmethod
    def generator(cls, k: int, c: int, i: int) -> "TruncatedSeries":
        if not 0 <= i < k:
            raise FreenilError(f"letter index {i} out of range for k={k}")
        s = cls.one(k, c)
        if c >= 1:
            s.parts[1][i] = 1
        return s

    def constant(self) -> int:
        return self.parts[0].get(0, 0)

    def copy(self) -> "TruncatedSeries":
        return TruncatedSeries(self.k, self.c, [dict(p) for p in self.parts])

    def _check_compatible(self, other: "TruncatedSeries") -> None:
        if self.k != other.k or self.c != other.c:
            raise FreenilError("series contexts differ")

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        out = self.copy()
        for d, p in enumerate(other.parts):
            op = out.parts[d]
            for v, cf in p.items():
                nv = op.get(v, 0) + cf
                if nv:
                    op[v] = nv
                else:
                    op.pop(v, None)
        return out

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(
            self.k, self.c, [{v: -cf for v, cf in p.items()} for p in self.parts]
        )

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + (-other)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_compatible(other)
        if self.is_one():
            return other  # series are immutable, so the operand itself serves
        if other.is_one():
            return self
        c = self.c
        kpow = _k_powers(self.k, c)
        a, b = self.constant(), other.constant()
        parts: list[dict[int, int]] = [{0: a * b} if a * b else {}]
        for d in range(1, c + 1):
            # the degree-0 parts contribute a * other_d + b * self_d
            p2 = other.parts[d]
            if a == 1:
                out = p2.copy()
            else:
                out = {v: a * x for v, x in p2.items()} if a else {}
            if b:
                for v, x in self.parts[d].items():
                    out[v] = out.get(v, 0) + b * x
            _add_cross_terms(out, self.parts, other.parts, d, kpow)
            parts.append({v: x for v, x in out.items() if x})
        return TruncatedSeries(self.k, c, parts)

    def _u_powers(self) -> tuple["TruncatedSeries", ...]:
        """u, u^2, ..., u^m for u = s - (constant term), where m is the
        largest t with t * (lowest degree of u) <= c, so u^{m+1} = 0.
        Computed on the first call and kept."""
        if self._upowers is None:
            u = TruncatedSeries(self.k, self.c, [{}, *self.parts[1:]])
            low = next((d for d, p in enumerate(u.parts) if p), None)
            powers = []
            if low is not None:
                powers.append(u)
                for _ in range(self.c // low - 1):
                    powers.append(powers[-1] * u)
            self._upowers = tuple(powers)
        return self._upowers

    def inverse(self) -> "TruncatedSeries":
        return self.power(-1)

    def power(self, n: int) -> "TruncatedSeries":
        """s^n = sum_t C(n, t) a^{n-t} u^t with a the constant term and
        u = s - a; for n < 0, a must be 1 and C(n, t) is the generalised
        binomial (-1)^t C(t-n-1, t)."""
        a = self.constant()
        if n < 0 and a != 1:
            raise FreenilError("only series with constant term 1 are inverted")
        if n == 0:
            return TruncatedSeries.one(self.k, self.c)
        if n == 1:
            return self
        head = 1 if a == 1 else a**n  # 1 ** -1 is the float 1.0
        parts: list[dict[int, int]] = [{0: head} if head else {}]
        parts.extend({} for _ in range(self.c))
        binom = 1
        for t, ut in enumerate(self._u_powers(), start=1):
            binom = binom * (n - t + 1) // t  # C(n, t), exact at every step
            if not binom:
                break  # 0 <= n < t: every later C(n, t) is 0 too
            cf = binom if a == 1 else binom * a ** (n - t)
            for d in range(t, self.c + 1):
                out = parts[d]
                for v, x in ut.parts[d].items():
                    out[v] = out.get(v, 0) + cf * x
        for d in range(1, self.c + 1):
            parts[d] = {v: x for v, x in parts[d].items() if x}
        return TruncatedSeries(self.k, self.c, parts)

    def degree_part(self, d: int) -> dict[int, int]:
        return dict(self.parts[d])

    def is_one(self) -> bool:
        parts = self.parts
        return parts[0] == _ONE_PART and not any(parts[1:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.k == other.k and self.c == other.c and self.parts == other.parts

    def __hash__(self):
        return hash(self.key())

    def key(self) -> tuple:
        return (
            self.k,
            self.c,
            tuple(tuple(sorted(p.items())) for p in self.parts),
        )

    def __repr__(self):
        terms = []
        for d, p in enumerate(self.parts):
            for v, cf in sorted(p.items()):
                mono = "".join(chr(ord("a") + dig) for dig in _unpack(v, d, self.k))
                terms.append(f"{cf}*{mono or '1'}")
        return "Series(" + " + ".join(terms[:12]) + (" + ..." if len(terms) > 12 else "") + ")"


def _add_cross_terms(
    out: dict[int, int],
    left: Sequence[dict[int, int]],
    right: Sequence[dict[int, int]],
    d: int,
    kpow: Sequence[int],
    sign: int = 1,
) -> None:
    """Add sign * left_{d1} right_{d2} over d1 + d2 = d, d1, d2 >= 1, to the
    degree-d part ``out``, skipping empty parts; cancelled keys stay as 0."""
    for d1 in range(1, d):
        p1, p2 = left[d1], right[d - d1]
        if not p1 or not p2:
            continue
        m = kpow[d - d1]
        for v1, c1 in p1.items():
            base = v1 * m
            c1 *= sign
            for v2, c2 in p2.items():
                key = base + v2
                out[key] = out.get(key, 0) + c1 * c2


@lru_cache(maxsize=None)
def _k_powers(k: int, c: int) -> tuple[int, ...]:
    out = [1]
    for _ in range(c):
        out.append(out[-1] * k)
    return tuple(out)


def _unpack(v: int, d: int, k: int) -> list[int]:
    digits = []
    for _ in range(d):
        v, r = divmod(v, k)
        digits.append(r)
    return digits[::-1]


def group_commutator(u: TruncatedSeries, v: TruncatedSeries) -> TruncatedSeries:
    """[u, v] = u v u^{-1} v^{-1} = uv (vu)^{-1}, by one right division:
    [u, v] = 1 + Z with Z vu = uv - vu, and since vu has constant term 1,
    Z_d = (uv - vu)_d - sum_{j=1}^{d-1} Z_{d-j} (vu)_j, degree by degree."""
    if u.constant() != 1 or v.constant() != 1:
        raise FreenilError("only series with constant term 1 are inverted")
    uv, vu = u * v, v * u
    c, q = uv.c, vu.parts
    kpow = _k_powers(uv.k, c)
    z: list[dict[int, int]] = [{0: 1}]
    for d in range(1, c + 1):
        zd = dict(uv.parts[d])
        for key, x in q[d].items():
            zd[key] = zd.get(key, 0) - x
        _add_cross_terms(zd, z, q, d, kpow, -1)
        z.append({key: x for key, x in zd.items() if x})
    return TruncatedSeries(uv.k, c, z)


def right_normed(series: Sequence[TruncatedSeries]) -> TruncatedSeries:
    """[s_1, s_2, ..., s_m] = [s_1, [s_2, ... [s_{m-1}, s_m]]]."""
    acc = series[-1]
    for s in reversed(series[:-1]):
        acc = group_commutator(s, acc)
    return acc


# -- Hall basis ------------------------------------------------------------------


@dataclass(frozen=True)
class BasicCommutator:
    weight: int
    position: int
    letter: Optional[int] = None
    left: Optional["BasicCommutator"] = None
    right: Optional["BasicCommutator"] = None

    def __str__(self):
        if self.letter is not None:
            return chr(ord("a") + self.letter)
        return f"[{self.left},{self.right}]"


class HallBasis:
    """Basic commutators of weight <= c on k letters, weight-ascending.

    Within a weight, ordered lexicographically by (left position, right
    position).  [u, v] is basic iff position(u) > position(v) and, when
    u = [x, y], position(y) <= position(v).
    """

    def __init__(self, k: int, c: int):
        if k < 1 or c < 1:
            raise FreenilError("need k >= 1 and c >= 1")
        self.k = k
        self.c = c
        commutators: list[BasicCommutator] = [
            BasicCommutator(weight=1, position=i, letter=i) for i in range(k)
        ]
        by_weight: dict[int, list[BasicCommutator]] = {1: list(commutators)}
        for w in range(2, c + 1):
            candidates = []
            for u in commutators:
                wv = w - u.weight
                if wv < 1:
                    continue
                for v in by_weight.get(wv, ()):
                    if u.position <= v.position:
                        continue
                    if u.letter is None and u.right.position > v.position:
                        continue
                    candidates.append((u, v))
            candidates.sort(key=lambda uv: (uv[0].position, uv[1].position))
            level = []
            for u, v in candidates:
                bc = BasicCommutator(
                    weight=w, position=len(commutators) + len(level), left=u, right=v
                )
                level.append(bc)
            by_weight[w] = level
            commutators.extend(level)
        self.commutators = tuple(commutators)
        self.by_weight = {w: tuple(v) for w, v in by_weight.items()}
        self._series_cache: dict[int, TruncatedSeries] = {}

    def __len__(self):
        return len(self.commutators)

    def series(self, bc: BasicCommutator) -> TruncatedSeries:
        s = self._series_cache.get(bc.position)
        if s is None:
            if bc.letter is not None:
                s = TruncatedSeries.generator(self.k, self.c, bc.letter)
            else:
                s = group_commutator(self.series(bc.left), self.series(bc.right))
            self._series_cache[bc.position] = s
        return s


def normal_form(s: TruncatedSeries, basis: HallBasis) -> list[int]:
    """Exponent vector (basis order) with s = prod C^{e_C}, weight-ascending
    from the left.  Raises NonIntegralExpansion if s is not a group image."""
    if s.k != basis.k or s.c != basis.c:
        raise FreenilError("series does not match basis context")
    if s.constant() != 1:
        raise NonIntegralExpansion("constant term is not 1")
    layers = [
        (w, [basis.series(bc) for bc in basis.by_weight[w]])
        for w in range(1, basis.c + 1)
    ]
    return [e for layer in expansion_exponents(s, layers, side="left") for e in layer]


def expansion_exponents(
    s: TruncatedSeries,
    layers: Sequence[tuple[int, Sequence[TruncatedSeries]]],
    side: str = "left",
) -> list[list[int]]:
    """Exponents of s written as an ordered product of the given factors.

    ``layers`` lists (weight, factors) with weights strictly ascending and each
    factor a group image whose lowest-degree part has the stated weight; the
    factors of each layer must have independent weight-w components.

    side="left": s = B_{w1} B_{w2} ... (ascending weights left to right).
    side="right": s = ... B_{w2} B_{w1} (ascending weights right to left) —
    the shape with the highest-weight factors leftmost and e.g. a^n b^n at the
    right end.  Within a layer, factors multiply in their listed order.
    """
    if side not in ("left", "right"):
        raise FreenilError("side must be 'left' or 'right'")
    residual = s
    out = []
    prev_w = 0
    for w, factors in layers:
        if w <= prev_w:
            raise FreenilError("layer weights must be strictly ascending")
        prev_w = w
        for d in range(1, w):
            if residual.parts[d]:
                raise NonIntegralExpansion(
                    f"residual has degree-{d} terms below the next layer weight {w}"
                )
        columns = [f.degree_part(w) for f in factors]
        solver = IntegerSolver(s.k ** w, columns)
        try:
            coeffs = solver.solve(residual.degree_part(w))
        except ValueError as exc:
            raise NonIntegralExpansion(f"weight {w}: {exc}") from exc
        out.append(coeffs)
        # peel the layer's block f_1^{e_1} ... f_m^{e_m} one factor at a time:
        # from the left f_1 comes off first, from the right f_m
        if side == "left":
            for f, e in zip(factors, coeffs):
                if e:
                    residual = f.power(-e) * residual
        else:
            for f, e in zip(reversed(factors), reversed(coeffs)):
                if e:
                    residual = residual * f.power(-e)
    if not residual.is_one():
        raise NonIntegralExpansion("nonzero residual after all layers")
    return out


# -- binomial-coefficient recovery -------------------------------------------------


@dataclass(frozen=True)
class BinomialPoly:
    """f(n) = sum over t >= 1 of coeffs[t-1] * C(n, t)."""

    coeffs: tuple[int, ...]

    def evaluate(self, n: int) -> int:
        return sum(a * math.comb(n, t + 1) for t, a in enumerate(self.coeffs))

    def as_dict(self) -> dict[int, int]:
        return {t + 1: a for t, a in enumerate(self.coeffs) if a}

    def __str__(self):
        terms = [
            ("" if a == 1 else f"{a}") + f"C(n,{t})" for t, a in sorted(self.as_dict().items())
        ]
        return " + ".join(terms) if terms else "0"


def fit_binomial(family: Callable[[int], int], w: int) -> BinomialPoly:
    """Fit f(n) = sum_{t=1}^{w} a_t C(n,t) from samples at n = 1..w; the fit is
    then re-verified at n = w+1..w+10."""
    coeffs: list[int] = []
    for n in range(1, w + 1):
        value = family(n) - sum(a * math.comb(n, t + 1) for t, a in enumerate(coeffs))
        coeffs.append(value)  # C(n, n) = 1, so a_n is forced
    poly = BinomialPoly(tuple(coeffs))
    for n in range(w + 1, w + 11):
        if family(n) != poly.evaluate(n):
            raise FreenilError(
                f"binomial fit fails at n={n}: {family(n)} != {poly.evaluate(n)}"
            )
    return poly


# -- identity verification -----------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    passed: bool
    counterexample: Optional[tuple[int, str]] = None  # (n, detail)


def default_binding(k: int, c: int) -> dict[str, TruncatedSeries]:
    names = "abc"
    if k > len(names):
        raise FreenilError("default binding supports k <= 3")
    return {names[i]: TruncatedSeries.generator(k, c, i) for i in range(k)}


def verify_identity(
    lhs,
    rhs,
    k: int,
    c: int,
    n_range: Sequence[int],
    binding: Optional[dict[str, TruncatedSeries]] = None,
) -> IdentityReport:
    """Evaluate both commutator expressions in the free class-c group on k
    letters for each n and compare the series exactly.  One memo serves both
    sides and every n, so each subtree free of n is evaluated once."""
    if binding is None:
        binding = default_binding(k, c)
    memo: dict = {}
    for n in n_range:
        left = lhs.evaluate(binding, n, memo)
        right = rhs.evaluate(binding, n, memo)
        if left != right:
            return IdentityReport(
                passed=False,
                counterexample=(n, f"series differ at n={n}"),
            )
    return IdentityReport(passed=True)
