"""Power-commutator presentations with prime relative orders.

A group is given by generators g_1..g_n (internally 0-based), prime relative
orders o_i, and relations

    g_i^{o_i} = w_i            (w_i a normal word over indices > i)
    g_j g_i = g_i g_j w_ji     (j > i; w_ji over indices > j; absent = trivial)

Elements are normal words: exponent tuples (e_1..e_n) with 0 <= e_i < o_i.
Arithmetic is collection-from-the-left.  The collector counts one central
integer "tail" per relation when asked to; that powers the Schur-multiplier
computation in the multiplier module.

A ``PcPresentation`` is valid by construction: it checks its own orders,
declared prime and relation words once, when it is made, and a failure names
the field or relation at fault.  The catalog parser checks line syntax only.
Each presentation owns one ``Collector`` and runs its overlap tests once,
with tails, the first time catalog load, ``PcGroup``, ``group_of`` or the
tails matrix asks for them: the same run decides consistency and gives the
relations among the tails.
"""
from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable, Optional, Sequence

Word = tuple[tuple[int, int], ...]       # ((generator, exponent), ...), 0-based
NormalWord = tuple[int, ...]

DEFAULT_CAP = 200_000


class PcError(Exception):
    """``where`` names the field or relation a malformed presentation fails
    at: "orders", "prime", ("pow", i) or ("comm", j, i), indices 1-based."""

    def __init__(self, message: str, where=None):
        super().__init__(message)
        self.where = where


class CatalogSyntaxError(PcError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class InconsistentPresentation(PcError):
    pass


class EnumerationCapExceeded(PcError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PcPresentation:
    name: str
    relative_orders: tuple[int, ...]
    power_words: tuple[Word, ...]
    comm_words: tuple[tuple[tuple[int, int], Word], ...]  # ((j, i), word), j > i
    prime: Optional[int] = None

    @property
    def ngens(self) -> int:
        return len(self.relative_orders)

    @property
    def order(self) -> int:
        return math.prod(self.relative_orders)

    @cached_property
    def comm_dict(self) -> dict[tuple[int, int], Word]:
        return dict(self.comm_words)

    @cached_property
    def collector(self) -> "Collector":
        """The one collector of this presentation."""
        return Collector(self)

    @cached_property
    def overlaps(self) -> tuple[tuple, ...]:
        """(family, indices, lhs, rhs, tail row) of every overlap test,
        collected with tails once per object (see ``overlap_tests``)."""
        return tuple(overlap_tests(self.collector))

    @cached_property
    def violations(self) -> tuple["Violation", ...]:
        """Failed overlap tests (empty when consistent)."""
        return tuple(check_consistency(self))

    def require_consistent(self) -> None:
        """Raise ``InconsistentPresentation`` naming the first failed tests."""
        if self.violations:
            raise InconsistentPresentation(
                f"{self.name}: " + "; ".join(str(v) for v in self.violations[:5])
            )

    def __post_init__(self) -> None:
        """Reject a malformed presentation, so every object is valid."""
        for o in self.relative_orders:
            if not is_prime(o):
                raise PcError(f"{self.name}: relative order {o} is not prime", "orders")
        if self.prime is not None and not is_prime(self.prime):
            raise PcError(f"{self.name}: prime = {self.prime} is not prime", "prime")
        if len(self.power_words) != self.ngens:
            raise PcError(f"{self.name}: expected {self.ngens} power words")
        for i, w in enumerate(self.power_words):
            self._check_word(w, i + 1, ("pow", i + 1))
        for (j, i), w in self.comm_words:
            where = ("comm", j + 1, i + 1)
            if not 0 <= i < j < self.ngens:
                raise PcError(f"{self.name}: bad commutator pair ({j + 1},{i + 1})", where)
            self._check_word(w, j + 1, where)
        if self.prime is not None and any(o != self.prime for o in self.relative_orders):
            raise PcError(
                f"{self.name}: declared prime {self.prime} does not match orders", "prime"
            )

    def _check_word(self, w: Word, min_index: int, where: tuple) -> None:
        prev = -1
        for g, e in w:
            if not min_index <= g < self.ngens:
                problem = f"generator g{g + 1} violates the index constraint"
            elif g <= prev:
                problem = "indices must be strictly increasing"
            elif not 1 <= e < self.relative_orders[g]:
                problem = f"exponent {e} out of range for g{g + 1}"
            else:
                prev = g
                continue
            what = " ".join(map(str, where))
            raise PcError(f"{self.name}: {what}: {problem}", where)

    def to_catalog_text(self) -> str:
        lines = ["[group]", f"name = {self.name}"]
        if self.prime is not None:
            lines.append(f"prime = {self.prime}")
        lines.append(f"ngens = {self.ngens}")
        lines.append("orders = " + " ".join(str(o) for o in self.relative_orders))
        for i, w in enumerate(self.power_words):
            if w:
                lines.append(f"pow {i + 1} : {format_word(w)}")
        for (j, i), w in sorted(self.comm_words):
            if w:
                lines.append(f"comm {j + 1} {i + 1} : {format_word(w)}")
        return "\n".join(lines) + "\n"


def make_presentation(
    name: str,
    orders: Sequence[int],
    power_words: Optional[dict[int, Word]] = None,
    comm_words: Optional[dict[tuple[int, int], Word]] = None,
    prime: Optional[int] = None,
) -> PcPresentation:
    """Convenience constructor from sparse relation dictionaries (0-based)."""
    n = len(orders)
    pw = tuple(tuple(power_words.get(i, ())) if power_words else () for i in range(n))
    cw = tuple(sorted((pair, tuple(w)) for pair, w in (comm_words or {}).items() if w))
    if prime is None and orders and all(o == orders[0] for o in orders):
        prime = orders[0]
    return PcPresentation(
        name=name,
        relative_orders=tuple(orders),
        power_words=pw,
        comm_words=cw,
        prime=prime,
    )


def format_word(w: Word) -> str:
    if not w:
        return ""
    return " ".join(f"g{g + 1}" if e == 1 else f"g{g + 1}^{e}" for g, e in w)


def word_of(exps: Sequence[int]) -> Word:
    return tuple((g, e) for g, e in enumerate(exps) if e)


class Collector:
    """Collection-from-the-left, counting one central tail per relation when
    the caller passes a tail vector.

    Tail bookkeeping: relation i (power) has tail index i; relation (j, i)
    (commutator, j > i) has index ``n + pair_index[(j, i)]``.  Each rewrite by a
    relation adds +1 (or -1 when inverting) to that relation's tail coordinate.
    A presentation's overlap tests are collected once, with tails, and serve
    both its consistency check and its tails matrix; products collect none.
    """

    def __init__(self, pres: PcPresentation):
        self.pres = pres
        self.n = pres.ngens
        self.orders = pres.relative_orders
        self.power_words = pres.power_words
        self.comm_words = pres.comm_dict
        self.pairs = [(j, i) for j in range(self.n) for i in range(j)]
        self.ntails = self.n + len(self.pairs)
        self.comm_tail_index = {pair: self.n + k for k, pair in enumerate(self.pairs)}

    def collect(
        self, letters: Iterable[tuple[int, int]], tails: Optional[list[int]] = None
    ) -> NormalWord:
        """Normal form of the given letter sequence.

        ``tails`` (mutable, length ntails), when given, accumulates relation
        applications.
        """
        buf: list[list[int]] = []
        self._push(letters, tails, buf)
        return self._reduce(buf, tails)

    def _push(self, letters, tails, out) -> None:
        for g, e in letters:
            if not 0 <= g < self.n:
                raise PcError(f"generator index {g} out of range")
            if e > 0:
                out.append([g, e])
            elif e < 0:
                for _ in range(-e):
                    self._push_inverse(g, tails, out)

    def _push_inverse(self, g: int, tails, out) -> None:
        # g^{-1} = g^{o-1} (w_g)^{-1} t^{-1}  from  g^o = w_g t  (t central)
        out.append([g, self.orders[g] - 1])
        for h, e in reversed(self.power_words[g]):
            for _ in range(e):
                self._push_inverse(h, tails, out)
        if tails is not None:
            tails[g] -= 1

    def _reduce(self, buf: list[list[int]], tails) -> NormalWord:
        orders = self.orders
        power_words = self.power_words
        comm_words = self.comm_words
        counting = tails is not None
        i = 0
        while i < len(buf):
            g, e = buf[i]
            if i + 1 < len(buf) and buf[i + 1][0] == g:
                buf[i][1] = e + buf[i + 1][1]
                del buf[i + 1]
                continue
            if e >= orders[g]:
                repl = []
                if e - orders[g]:
                    repl.append([g, e - orders[g]])
                repl.extend([h, ee] for h, ee in power_words[g])
                buf[i : i + 1] = repl
                if counting:
                    tails[g] += 1
                i = max(i - 1, 0)
                continue
            if i + 1 < len(buf):
                g2, e2 = buf[i + 1]
                if g2 < g:
                    # one swap step: g^e g2^{e2} = g^{e-1} g2 g w_{g,g2} g2^{e2-1}
                    repl = []
                    if e - 1:
                        repl.append([g, e - 1])
                    repl.append([g2, 1])
                    repl.append([g, 1])
                    repl.extend([h, ee] for h, ee in comm_words.get((g, g2), ()))
                    if e2 - 1:
                        repl.append([g2, e2 - 1])
                    buf[i : i + 2] = repl
                    if counting:
                        tails[self.comm_tail_index[(g, g2)]] += 1
                    i = max(i - 1, 0)
                    continue
            i += 1
        exps = [0] * self.n
        for g, e in buf:
            exps[g] = e
        return tuple(exps)


@dataclass(frozen=True)
class Violation:
    family: str            # "triple" | "power_left" | "power_right" | "power_self"
    indices: tuple[int, ...]  # 1-based generator indices
    lhs: NormalWord
    rhs: NormalWord

    def __str__(self):
        idx = ",".join(str(i) for i in self.indices)
        return f"{self.family}({idx}): {self.lhs} != {self.rhs}"


def overlap_tests(collector: Collector):
    """Yield (family, indices, lhs, rhs, row) for every overlap test.

    The four overlap families; each side collected deterministically into its
    normal word, with one tail vector accumulated across its staged
    collections.  ``row`` is the sparse difference {tail: lhs - rhs} of the
    two tail vectors: the relation consistency imposes on the tails.
    """
    n = collector.n
    orders = collector.orders

    def side(first: Word, before: Word = (), after: Word = ()):
        # collect ``first``, then its normal word between ``before`` and
        # ``after``, accumulating one tail vector over both collections
        t = [0] * collector.ntails
        e1 = collector.collect(first, t)
        return collector.collect(before + word_of(e1) + after, t), t

    def test(family: str, indices: tuple[int, ...], lhs, rhs):
        (le, lt), (re_, rt) = lhs, rhs
        row = {k: a - b for k, (a, b) in enumerate(zip(lt, rt)) if a != b}
        return family, indices, le, re_, row

    for k in range(n):
        for j in range(k):
            for i in range(j):
                # (g_k g_j) g_i  vs  g_k (g_j g_i)
                rhs = side(((k, 1), (j, 1)), after=((i, 1),))
                lhs = side(((j, 1), (i, 1)), before=((k, 1),))
                yield test("triple", (k + 1, j + 1, i + 1), lhs, rhs)
    for j in range(n):
        for i in range(j):
            # (g_j^{o_j}) g_i  vs  g_j^{o_j-1} (g_j g_i)
            lhs = side(((j, orders[j]),), after=((i, 1),))
            rhs = side(((j, 1), (i, 1)), before=((j, orders[j] - 1),))
            yield test("power_left", (j + 1, i + 1), lhs, rhs)
            # g_j (g_i^{o_i})  vs  (g_j g_i) g_i^{o_i-1}
            lhs = side(((i, orders[i]),), before=((j, 1),))
            rhs = side(((j, 1), (i, 1)), after=((i, orders[i] - 1),))
            yield test("power_right", (j + 1, i + 1), lhs, rhs)
    for i in range(n):
        # g_i (g_i^{o_i})  vs  (g_i^{o_i}) g_i
        lhs = side(((i, orders[i]),), before=((i, 1),))
        rhs = side(((i, orders[i]),), after=((i, 1),))
        yield test("power_self", (i + 1,), lhs, rhs)


def check_consistency(pres: PcPresentation) -> list[Violation]:
    """The failed overlap tests of ``pres``, read from its one overlap run."""
    return [
        Violation(family, indices, lhs, rhs)
        for family, indices, lhs, rhs, _ in pres.overlaps
        if lhs != rhs
    ]


@dataclass(frozen=True)
class Subgroup:
    group: "PcGroup"
    generators: tuple[NormalWord, ...]
    elements: frozenset[NormalWord]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, w: NormalWord) -> bool:
        return w in self.elements

    def is_trivial(self) -> bool:
        return self.order == 1

    def exponent(self) -> int:
        return self._exponent

    @cached_property
    def _exponent(self) -> int:
        e = 1
        for w in self.elements:
            e = math.lcm(e, self.group.element_order(w))
        return e


@dataclass(frozen=True)
class GroupFlags:
    nilpotency_class: int
    derived_length: int
    exponent: int
    is_regular: Optional[bool]
    is_powerful: bool
    condition1_m: Optional[int]
    condition2: bool
    central_pn: int
    is_metabelian: bool


class PcGroup:
    """Arithmetic and structure for one consistent pc presentation.

    A group of order at most ``DEFAULT_CAP`` computes by index tables
    (Leedham-Green–Soicher, "Collection from the left and other strategies",
    JSC 9, 1990): ``elements()`` is the lexicographic list of normal words,
    and each pc generator g has a right-multiplication column, entry x the
    index of x·g, filled on demand by one single-letter collection.  A
    product u·v walks u's index down the columns of v's letters, at most
    n(p−1) lookups, and an inverse walks u down to the identity.  Groups of
    order at most ``MEMO_ORDER_LIMIT`` also keep every product in a pair
    memo, so repeated products are one dict hit.  Larger groups collect each
    product word by word and build nothing of size |G|.  Every k-th power of
    an element is computed once.  The lower central and derived series, the
    center, γ₂, exponents and the k-th power sets and subgroups are computed
    once and kept; γ₂ is enumerated without enumerating the group.

    Two index maps serve callers that sweep the whole group.  ``rows`` is the
    Cayley table, derived from the columns: y is y' = y − stride[m] times its
    last letter g_m, so row x reads entry y off column m at entry y'.  It
    takes |G|² entries, so only the capped pair sweeps of the law suites and
    the bar oracle ask for it.  In a tabled p-group, ``pth(x)`` is the
    index of x^p, filled on demand by walking x's letters p − 1 times down
    the columns; element orders and exponents walk this map, so x has order
    p^k when k steps reach the identity.  A presentation whose relative
    orders mix primes finds orders by powering.
    """

    MEMO_ORDER_LIMIT = 4096

    def __init__(self, pres: PcPresentation):
        pres.require_consistent()
        self.pres = pres
        self.collector = pres.collector
        self.identity: NormalWord = (0,) * pres.ngens
        self._mcache: Optional[dict] = {} if pres.order <= self.MEMO_ORDER_LIMIT else None
        self._tabled = pres.order <= DEFAULT_CAP
        # right-multiplication columns, one per generator once it is first used
        self._right: list[Optional[list[int]]] = [None] * pres.ngens
        self._pcache: dict[tuple[NormalWord, int], NormalWord] = {}
        self._ocache: dict[NormalWord, int] = {}
        self._pth: Optional[list[int]] = None
        self._icache: dict[NormalWord, NormalWord] = {}
        self._exponents: dict[Optional[frozenset[NormalWord]], int] = {}
        self._power_sets: dict[int, frozenset[NormalWord]] = {}
        self._power_subgroups: dict[int, Subgroup] = {}
        self._order_prime_factors = sorted(set(pres.relative_orders))
        # the prime of a tabled p-group, whose orders walk the p-th-power map
        self._walk_prime = (
            self._order_prime_factors[0]
            if self._tabled and len(self._order_prime_factors) == 1
            else None
        )

    # -- basic arithmetic ---------------------------------------------------

    @property
    def order(self) -> int:
        return self.pres.order

    @property
    def ngens(self) -> int:
        return self.pres.ngens

    def generator(self, i: int) -> NormalWord:
        if not 0 <= i < self.ngens:
            raise PcError(f"generator index {i} out of range")
        return tuple(1 if j == i else 0 for j in range(self.ngens))

    def generators(self) -> list[NormalWord]:
        return [self.generator(i) for i in range(self.ngens)]

    def normalize(self, letters: Iterable[tuple[int, int]]) -> NormalWord:
        return self.collector.collect(letters)

    def multiply(self, u: NormalWord, v: NormalWord) -> NormalWord:
        cache = self._mcache
        if cache is not None:
            key = (u, v)
            w = cache.get(key)
            if w is None:
                w = self._product(u, v)
                cache[key] = w
            return w
        return self._product(u, v)

    def _product(self, u: NormalWord, v: NormalWord) -> NormalWord:
        if not self._tabled:
            return self.collector.collect(word_of(u) + word_of(v))
        if v not in self._index:
            v = self.normalize(word_of(v))
        x = self.position(u)
        for g, e in enumerate(v):
            if e:
                x = self._step(x, g, e)
        return self._words[x]

    def _step(self, x: int, g: int, e: int) -> int:
        """Index of (element x)·g^e, e steps down column g."""
        col = self._right[g]
        if col is None:
            col = self._right[g] = [-1] * self.order
        for _ in range(e):
            y = col[x]
            if y < 0:
                y = self._index[self.normalize(word_of(self._words[x]) + ((g, 1),))]
                col[x] = y
            x = y
        return x

    def inverse(self, u: NormalWord) -> NormalWord:
        w = self._icache.get(u)
        if w is None:
            if self._tabled:
                # u·g1^k1·g2^k2··· = 1, each ki chosen to clear exponent i
                x = self.position(u)
                ks = []
                for g, o in enumerate(self.pres.relative_orders):
                    e = self._words[x][g]
                    if e:
                        x = self._step(x, g, o - e)
                    ks.append((o - e) % o)
                w = tuple(ks)
            else:
                w = self.normalize(tuple((g, -e) for g, e in reversed(word_of(u))))
            self._icache[u] = w
        return w

    def power(self, u: NormalWord, k: int) -> NormalWord:
        key = (u, k)
        result = self._pcache.get(key)
        if result is None:
            base = u
            if k < 0:
                base = self.inverse(u)
                k = -k
            result = self.identity
            while k:
                if k & 1:
                    result = self.multiply(result, base)
                base = self.multiply(base, base)
                k >>= 1
            self._pcache[key] = result
        return result

    def conjugate(self, g: NormalWord, u: NormalWord) -> NormalWord:
        """Left conjugation: g u g^{-1}."""
        return self.multiply(self.multiply(g, u), self.inverse(g))

    def commutator(self, u: NormalWord, v: NormalWord) -> NormalWord:
        """[u, v] = u v u^{-1} v^{-1}."""
        uv = self.multiply(u, v)
        vu = self.multiply(v, u)
        return self.multiply(uv, self.inverse(vu))

    def iterated_commutator(self, seq: Sequence[NormalWord]) -> NormalWord:
        """Right-normed: [x1, x2, ..., xm] = [x1, [x2, [...]]]."""
        if not seq:
            raise PcError("empty commutator")
        acc = seq[-1]
        for x in reversed(seq[:-1]):
            acc = self.commutator(x, acc)
        return acc

    def element_order(self, u: NormalWord) -> int:
        p = self._walk_prime
        if p is not None:
            return p ** self.pth_steps(self.position(u))
        o = self._ocache.get(u)
        if o is None:
            o = self.order
            for p in self._order_prime_factors:
                while o % p == 0 and self.power(u, o // p) == self.identity:
                    o //= p
            self._ocache[u] = o
        return o

    def pth(self, x: int) -> int:
        """Index of (element x)^p in a tabled p-group: x's letters walked
        p − 1 times down the columns, once per x."""
        table = self._pth
        if table is None:
            if self._walk_prime is None:
                raise PcError(f"{self.pres.name}: no p-th-power map for this presentation")
            table = self._pth = [-1] * self.order
        y = table[x]
        if y < 0:
            letters = [(g, e) for g, e in enumerate(self._words[x]) if e]
            y = x
            for _ in range(self._walk_prime - 1):
                for g, e in letters:
                    y = self._step(y, g, e)
            table[x] = y
        return y

    def pth_steps(self, x: int, members: Optional[frozenset[NormalWord]] = None) -> int:
        """Steps of the p-th-power map from index x until it reaches
        ``members`` (the identity when None): x^(p^k) is the first power of
        x there."""
        k = 0
        if members is None:
            while x:
                x = self.pth(x)
                k += 1
        else:
            words = self._words
            while words[x] not in members:
                x = self.pth(x)
                k += 1
        return k

    # -- enumeration and subgroups -------------------------------------------

    def elements(self) -> tuple[NormalWord, ...]:
        """Every normal word, in lexicographic order, built once."""
        if not self._tabled:
            raise EnumerationCapExceeded(
                f"{self.pres.name}: order {self.order} exceeds cap {DEFAULT_CAP}"
            )
        return self._words

    def position(self, w: NormalWord) -> int:
        """Index of the element w in ``elements()``."""
        x = self._index.get(w)
        if x is None:
            x = self._index[self.normalize(word_of(w))]
        return x

    @cached_property
    def _words(self) -> tuple[NormalWord, ...]:
        return tuple(itertools.product(*[range(o) for o in self.pres.relative_orders]))

    @cached_property
    def _index(self) -> dict[NormalWord, int]:
        return {w: i for i, w in enumerate(self.elements())}

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The Cayley table over ``elements()``: rows[x][y] is the index of
        x·y.  Each entry is one column lookup (see the class docstring)."""
        words = self.elements()
        orders = self.pres.relative_orders
        strides = [math.prod(orders[g + 1:]) for g in range(self.ngens)]
        columns = [[self._step(x, g, 1) for x in range(self.order)] for g in range(self.ngens)]
        # times[y] maps x to the index of x·y
        times = [list(range(self.order))]
        for y in range(1, self.order):
            w = words[y]
            m = max(g for g, e in enumerate(w) if e)
            col = columns[m]
            times.append([col[t] for t in times[y - strides[m]]])
        return tuple(zip(*times))

    @cached_property
    def inverses(self) -> list[int]:
        """inverses[x] is the index of the inverse of element x."""
        return [row.index(0) for row in self.rows]

    def closure(self, gens: Iterable[NormalWord]) -> frozenset[NormalWord]:
        elems = {self.identity}
        frontier = [self.identity]
        gens = [g for g in gens if g != self.identity]
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = self.multiply(x, s)
                if y not in elems:
                    if len(elems) >= DEFAULT_CAP:
                        raise EnumerationCapExceeded(
                            f"{self.pres.name}: subgroup closure exceeds cap {DEFAULT_CAP}"
                        )
                    elems.add(y)
                    frontier.append(y)
        return frozenset(elems)

    def _conjugates(
        self, seeds: Iterable[NormalWord], conjugators: Sequence[NormalWord]
    ) -> list[NormalWord]:
        """Sorted nontrivial conjugates of ``seeds`` under ``conjugators``:
        generators of their normal closure in <conjugators>."""
        seen = set(seeds) - {self.identity}
        frontier = list(seen)
        while frontier:
            x = frontier.pop()
            for g in conjugators:
                y = self.conjugate(g, x)
                if y != self.identity and y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return sorted(seen)

    def subgroup(
        self, gens: Iterable[NormalWord], normal_closure: bool = False
    ) -> Subgroup:
        gens = [self.normalize(word_of(g)) for g in gens]
        if normal_closure:
            gens = self._conjugates(gens, self.generators())
        return Subgroup(self, tuple(gens), self.closure(gens))

    def trivial_subgroup(self) -> Subgroup:
        return Subgroup(self, (), frozenset([self.identity]))

    def full_subgroup(self) -> Subgroup:
        return Subgroup(self, tuple(self.generators()), frozenset(self.elements()))

    # -- characteristic structure ---------------------------------------------

    @cached_property
    def gamma2(self) -> Subgroup:
        """γ₂ = [G, G]: only its own elements are enumerated, never all of G."""
        gens = self.generators()
        return self.subgroup(
            [self.commutator(a, b) for i, a in enumerate(gens) for b in gens[i + 1:]],
            normal_closure=True,
        )

    def lower_central_series(self) -> list[Subgroup]:
        """[γ1, γ2, ...] down to (and including) the trivial subgroup."""
        return list(self._lower_central)

    def gamma(self, m: int) -> Subgroup:
        """γ_m, or the trivial subgroup past the end of the series."""
        lcs = self._lower_central
        return lcs[m - 1] if m - 1 < len(lcs) else self.trivial_subgroup()

    def derived_series(self) -> list[Subgroup]:
        return list(self._derived)

    @cached_property
    def _lower_central(self) -> tuple[Subgroup, ...]:
        return self._commutator_series("lower central", self.generators())

    @cached_property
    def _derived(self) -> tuple[Subgroup, ...]:
        return self._commutator_series("derived", None)

    def _commutator_series(
        self, what: str, partners: Optional[list[NormalWord]]
    ) -> tuple[Subgroup, ...]:
        """G, γ₂, then each term the normal closure of the commutators of the
        previous term's generators with ``partners`` (with themselves when
        None), down to the trivial subgroup."""
        series = [self.full_subgroup()]
        nxt = self.gamma2
        while series[-1].order > 1:
            if nxt.order == series[-1].order:
                raise PcError(f"{self.pres.name}: {what} series does not terminate")
            series.append(nxt)
            current = list(nxt.generators)
            comms = (
                self.commutator(a, b)
                for a in current
                for b in (current if partners is None else partners)
            )
            nxt = self.subgroup([c for c in comms if c != self.identity], normal_closure=True)
        return tuple(series)

    def center(self) -> Subgroup:
        return self._center

    @cached_property
    def _center(self) -> Subgroup:
        gens = self.generators()
        central = [
            w
            for w in self.elements()
            if all(self.multiply(w, g) == self.multiply(g, w) for g in gens)
        ]
        return Subgroup(self, tuple(central), frozenset(central))

    def power_subgroup(self, k: int) -> Subgroup:
        """G^k = <x^k : x in G>, built once per k."""
        sub = self._power_subgroups.get(k)
        if sub is None:
            sub = self.subgroup(sorted(self.power_set(k) - {self.identity}))
            self._power_subgroups[k] = sub
        return sub

    def power_set(self, k: int) -> frozenset[NormalWord]:
        """The bare set {x^k : x in G} (not necessarily a subgroup), built once per k."""
        powers = self._power_sets.get(k)
        if powers is None:
            powers = frozenset(self.power(w, k) for w in self.elements())
            self._power_sets[k] = powers
        return powers

    def exponent(self, modulo: Optional[Subgroup] = None) -> int:
        key = None if modulo is None else modulo.elements
        e = self._exponents.get(key)
        if e is not None:
            return e
        p = self._walk_prime
        if p is not None:
            e = p ** max(self.pth_steps(x, key) for x in range(self.order))
        else:
            e = 1
            for w in self.elements():
                k = self.element_order(w)
                if modulo is not None:
                    for q in self._order_prime_factors:
                        while k % q == 0 and self.power(w, k // q) in modulo:
                            k //= q
                e = math.lcm(e, k)
        self._exponents[key] = e
        return e

    def abelianization_invariants(self) -> tuple[int, ...]:
        """Invariants of G/γ₂(G), from the abelianized relation lattice."""
        from . import intlinalg

        n = self.ngens
        rows = []
        for i, w in enumerate(self.pres.power_words):
            vec = {i: self.pres.relative_orders[i]}
            for g, e in w:
                vec[g] = vec.get(g, 0) - e
            rows.append({k: v for k, v in vec.items() if v})
        for (_j, _i), w in self.pres.comm_words:
            vec = {}
            for g, e in w:
                vec[g] = vec.get(g, 0) + e
            if vec:
                rows.append(vec)
        torsion, free_rank = intlinalg.quotient_invariants(n, rows)
        if free_rank:
            raise PcError(f"{self.pres.name}: abelianization not finite")
        return torsion

    # -- classification --------------------------------------------------------

    def nilpotency_class(self) -> int:
        return len(self.lower_central_series()) - 1

    def is_regular(self) -> Optional[bool]:
        """Exact for |G| <= 81 (exhaustive pairs) and for the standard criteria
        (abelian; class < p; nonabelian 2-group); otherwise a sampled pass
        returns False when a sampled pair fails and None ("unknown") when
        every sampled pair passes."""
        p = self.pres.prime
        if p is None:
            return None
        cls = self.nilpotency_class()
        if cls == 1:
            return True
        if cls < p:
            return True
        if p == 2:
            return False  # nonabelian 2-groups are never regular
        elems = self.elements()
        if self.order <= 81:
            pairs, verdict = ((a, b) for a in elems for b in elems), True
        else:
            rng = random.Random(0)
            pairs = ((rng.choice(elems), rng.choice(elems)) for _ in range(512))
            verdict = None
        targets: dict[frozenset, frozenset] = {}
        if all(self._regular_pair(a, b, p, targets) for a, b in pairs):
            return verdict
        return False

    def _regular_pair(
        self, a: NormalWord, b: NormalWord, p: int, targets: dict[frozenset, frozenset]
    ) -> bool:
        # s := b^{-p} a^{-p} (ab)^p must lie in <x^p : x in γ₂(<a,b>)>
        s = self.multiply(
            self.multiply(self.power(b, -p), self.power(a, -p)),
            self.power(self.multiply(a, b), p),
        )
        if s == self.identity:
            return True
        key = frozenset((a, b))
        target = targets.get(key)
        if target is None:
            # γ₂(H) = normal closure of [a,b] in H = <a,b>
            gamma2 = self.closure(self._conjugates([self.commutator(a, b)], (a, b)))
            target = self.closure(sorted({self.power(x, p) for x in gamma2}))
            targets[key] = target
        return s in target

    def classify(self) -> GroupFlags:
        p = self.pres.prime
        cls = self.nilpotency_class()
        dlen = len(self.derived_series()) - 1
        expo = self.exponent()
        central_exp = self.exponent(modulo=self.center())
        gamma2 = self.gamma2

        is_powerful = False
        condition1_m = None
        condition2 = False
        central_pn = 0
        if p is not None:
            gp = self.power_subgroup(p)
            if p == 2:
                is_powerful = gamma2.elements <= self.power_subgroup(4).elements
            else:
                is_powerful = gamma2.elements <= gp.elements
            for m in range(2, p):
                if self.gamma(m).elements <= gp.elements:
                    condition1_m = m
                    break
            condition2 = self.gamma(p).elements <= self.power_subgroup(p * p).elements
            n = 0
            e = central_exp
            while e > 1:
                if e % p:
                    raise PcError(f"{self.pres.name}: central quotient exponent not a p-power")
                e //= p
                n += 1
            central_pn = n

        return GroupFlags(
            nilpotency_class=cls,
            derived_length=dlen,
            exponent=expo,
            is_regular=self.is_regular(),
            is_powerful=is_powerful,
            condition1_m=condition1_m,
            condition2=condition2,
            central_pn=central_pn,
            is_metabelian=dlen <= 2,
        )


@lru_cache(maxsize=8)
def group_of(pres: PcPresentation) -> PcGroup:
    """The group of ``pres``, kept with its memo and tables while it is among
    the few most recently asked for."""
    return PcGroup(pres)


# -- catalog text format -------------------------------------------------------

_TOKEN_RE = re.compile(r"^g(\d+)(?:\^(\d+))?$")
_RELATION_RE = re.compile(r"^(pow|comm)((?:\s+\d+)+)\s*:\s*(.*)$")
_ARITY = {"pow": 1, "comm": 2}
_KEYS = {
    "name": str,
    "prime": int,
    "ngens": int,
    "orders": lambda value: [int(t) for t in value.split()],
}


def _parse_word(tokens: str, lineno: int) -> Word:
    out = []
    for tok in tokens.split():
        m = _TOKEN_RE.match(tok)
        if not m:
            raise CatalogSyntaxError(lineno, f"bad word token {tok!r}")
        g = int(m.group(1))
        e = int(m.group(2)) if m.group(2) else 1
        out.append((g - 1, e))
    return tuple(out)


def parse_catalog(text: str) -> list[PcPresentation]:
    """Parse the line-oriented catalog format; consistency is NOT checked here.

    The parser checks line syntax only: tokens, integers, keys, relation
    headers (``pow i`` with 1 <= i <= ngens, ``comm j i`` with
    1 <= i < j <= ngens), repeated keys and relations, and each block's name,
    ngens and orders.  Every other rule is ``PcPresentation``'s; its failure
    is reported at the line of the field or relation it names.
    """
    blocks: list[tuple[int, list[tuple[int, str]]]] = []
    current: Optional[list[tuple[int, str]]] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[group]":
            current = []
            blocks.append((lineno, current))
            continue
        if current is None:
            raise CatalogSyntaxError(lineno, "content before first [group]")
        current.append((lineno, line))

    presentations = []
    seen_names = set()
    for start_line, lines in blocks:
        fields: dict = {}
        relations: dict[tuple, Word] = {}
        line_of: dict = {}  # field or relation -> its line
        for lineno, line in lines:
            if "=" in line and not line.startswith(("pow", "comm")):
                key, _, value = line.partition("=")
                key = key.strip()
                value = value.strip()
                if key not in _KEYS:
                    raise CatalogSyntaxError(lineno, f"unknown key {key!r}")
                if key in line_of:
                    raise CatalogSyntaxError(lineno, f"repeated {key}")
                try:
                    fields[key] = _KEYS[key](value)
                except ValueError:
                    msg = f"{key} = {value!r}: not an integer"
                    raise CatalogSyntaxError(lineno, msg) from None
                line_of[key] = lineno
                continue
            m = _RELATION_RE.match(line)
            if not m or len(m.group(2).split()) != _ARITY[m.group(1)]:
                raise CatalogSyntaxError(lineno, f"unrecognized line {line!r}")
            kind = m.group(1)
            ngens = fields.get("ngens")
            if ngens is None:
                raise CatalogSyntaxError(lineno, f"{kind} before ngens")
            rel = (kind, *map(int, m.group(2).split()))
            j, i = rel[1], rel[-1]  # pow i has j == i
            if not 1 <= i <= j <= ngens or (kind == "comm" and i == j):
                need = "1 <= i <= ngens" if kind == "pow" else "1 <= i < j <= ngens"
                raise CatalogSyntaxError(lineno, f"{kind} indices out of range: {need}")
            if rel in line_of:
                raise CatalogSyntaxError(lineno, f"repeated {' '.join(map(str, rel))}")
            relations[rel] = _parse_word(m.group(3), lineno)
            line_of[rel] = lineno

        name = fields.get("name")
        if name is None:
            raise CatalogSyntaxError(start_line, "missing name")
        if name in seen_names:
            raise CatalogSyntaxError(start_line, f"duplicate group name {name!r}")
        seen_names.add(name)
        ngens, orders = fields.get("ngens"), fields.get("orders")
        if ngens is None or orders is None:
            raise CatalogSyntaxError(start_line, f"{name}: missing ngens/orders")
        if len(orders) != ngens:
            raise CatalogSyntaxError(start_line, f"{name}: orders count != ngens")
        try:
            pres = make_presentation(
                name,
                orders,
                power_words={r[1] - 1: w for r, w in relations.items() if r[0] == "pow"},
                comm_words={
                    (r[1] - 1, r[2] - 1): w for r, w in relations.items() if r[0] == "comm"
                },
                prime=fields.get("prime"),
            )
        except PcError as exc:
            raise CatalogSyntaxError(line_of.get(exc.where, start_line), str(exc)) from exc
        presentations.append(pres)
    return presentations
