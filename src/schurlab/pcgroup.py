"""Power-commutator presentations with prime relative orders.

A group is given by generators g_1..g_n (internally 0-based), prime relative
orders o_i, and relations

    g_i^{o_i} = w_i            (w_i a normal word over indices > i)
    g_j g_i = g_i g_j w_ji     (j > i; w_ji over indices > j; absent = trivial)

Elements are normal words: exponent tuples (e_1..e_n) with 0 <= e_i < o_i.
Words are collected from the left.  The collector counts one central integer
"tail" per relation when asked to; that powers the Schur-multiplier
computation in the multiplier module.  Group arithmetic is written once over
element handles: indices walked down tables read off the relations in a
listed group, normal words collected otherwise (see ``PcGroup``).

A ``PcPresentation`` is valid by construction: it checks its own orders,
declared prime and relation words once, when it is made, and a failure names
the field or relation at fault.  The catalog parser checks line syntax only.
Each presentation owns one ``Collector`` and runs its overlap tests once,
with tails, the first time catalog load, ``PcGroup``, ``group_of`` or the
tails matrix asks for them: the same run decides consistency and gives the
relations among the tails.  The first stage of each side is one relation,
read off it; only the second stage is collected.
"""
from __future__ import annotations

import itertools
import math
import random
import re
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Iterable, Optional, Sequence

Word = tuple[tuple[int, int], ...]       # ((generator, exponent), ...), 0-based
NormalWord = tuple[int, ...]

DEFAULT_CAP = 200_000
# Listing G and building its n right-multiplication columns cost about
# 1-1.5 microseconds an element (2-core Xeon, Python 3.11: 0.3-0.7 to list,
# 70-330 ns a column entry); a product walked down the columns takes 2-8
# microseconds, where collecting a random pair of normal words takes 20-170.
# Up to this order the few thousand products of ``classify`` repay the list,
# so a group lists itself when it is made; a larger one collects until
# something sweeps it.  At 65,536 the record of abelian_3_3_3_3 would list
# its cover of order 3^10 and take 0.07 s instead of 0.013 s.
TABLE_ORDER = 4096


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
        # each relation's right-hand side reversed, as a rewrite pushes it onto
        # the pending stack, and each commutator relation's tail, by [j][i]
        self._power_stack = [tuple(reversed(w)) for w in self.power_words]
        self._comm_stack = [
            [tuple(reversed(self.comm_words.get((j, i), ()))) for i in range(self.n)]
            for j in range(self.n)
        ]
        self._comm_tail = [
            [self.comm_tail_index.get((j, i), -1) for i in range(self.n)] for j in range(self.n)
        ]

    def collect(
        self, letters: Iterable[tuple[int, int]], tails: Optional[list[int] | dict[int, int]] = None
    ) -> NormalWord:
        """Normal form of the given letter sequence.

        ``tails``, when given, accumulates relation applications by tail index:
        a list of length ntails or a sparse ``defaultdict(int)``.
        """
        buf: list[tuple[int, int]] = []
        self._push(letters, tails, buf)
        return self._reduce(buf, tails)

    def _push(self, letters, tails, out) -> None:
        for g, e in letters:
            if not 0 <= g < self.n:
                raise PcError(f"generator index {g} out of range")
            if e > 0:
                out.append((g, e))
            elif e < 0:
                for _ in range(-e):
                    self._push_inverse(g, tails, out)

    def _push_inverse(self, g: int, tails, out) -> None:
        # g^{-1} = g^{o-1} (w_g)^{-1} t^{-1}  from  g^o = w_g t  (t central)
        out.append((g, self.orders[g] - 1))
        for h, e in reversed(self.power_words[g]):
            for _ in range(e):
                self._push_inverse(h, tails, out)
        if tails is not None:
            tails[g] -= 1

    def _reduce(self, buf: list[tuple[int, int]], tails) -> NormalWord:
        """Collect ``buf`` from the left on two stacks: ``done``, the
        collected prefix, and ``todo``, the rest of the word reversed, whose
        top is the letter at the cursor.  A letter equal in generator to the
        next merges with it; an exponent at or above its relative order is
        rewritten by the power relation; a letter above the next is swapped
        past it by one commutator relation.  A rewrite puts its result on
        ``todo`` and moves ``done``'s top back onto it: the cursor backs up
        one letter."""
        orders = self.orders
        power_stack, comm_stack, comm_tail = self._power_stack, self._comm_stack, self._comm_tail
        counting = tails is not None
        done: list[tuple[int, int]] = []
        todo = buf[::-1]
        push, pop = todo.append, todo.pop
        while todo:
            g, e = pop()
            nxt = todo[-1] if todo else None
            if nxt is not None and nxt[0] == g:
                todo[-1] = (g, e + nxt[1])
                continue
            o = orders[g]
            if e >= o:
                # g^e = g^{e-o} w_g
                todo.extend(power_stack[g])
                if e > o:
                    push((g, e - o))
                if counting:
                    tails[g] += 1
            elif nxt is not None and nxt[0] < g:
                # one swap step: g^e g2^{e2} = g^{e-1} g2 g w_{g,g2} g2^{e2-1}
                g2, e2 = pop()
                if e2 > 1:
                    push((g2, e2 - 1))
                todo.extend(comm_stack[g][g2])
                push((g, 1))
                push((g2, 1))
                if e > 1:
                    push((g, e - 1))
                if counting:
                    tails[comm_tail[g][g2]] += 1
            else:
                done.append((g, e))
                continue
            if done:
                push(done.pop())
        exps = [0] * self.n
        for g, e in done:
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

    The four overlap families.  Each side puts the left-hand side of one
    relation, g_j g_i (j > i) or g_i^{o_i}, between two fixed words.  Its
    first stage applies that relation once: a validated relation word has
    increasing indices above the pair and exponents in range, so the result
    is already normal and is read off the relation, with that relation's
    tail +1, as the collector would rewrite it.  Only the second stage, the
    result collected in place, calls the collector; both stages count into
    one sparse tail map.  ``row`` is the sparse difference {tail: lhs - rhs}
    of the two counts: the relation consistency imposes on the tails.
    """
    n = collector.n
    orders = collector.orders
    power_words = collector.power_words
    comm_words = collector.comm_words
    comm_tail = collector.comm_tail_index

    def comm(j: int, i: int):
        # g_j g_i = g_i g_j w_ji, one application of relation (j, i)
        return ((i, 1), (j, 1)) + comm_words.get((j, i), ()), comm_tail[(j, i)]

    def power(i: int):
        # g_i^{o_i} = w_i, one application of relation i
        return power_words[i], i

    def side(first, before: Word = (), after: Word = ()):
        # ``first`` is (normal word, tail) of the first stage; collect that
        # word between ``before`` and ``after`` on top of its tail
        word, tail = first
        t = defaultdict(int, {tail: 1})
        return collector.collect(before + word + after, t), t

    def test(family: str, indices: tuple[int, ...], lhs, rhs):
        (le, lt), (re_, rt) = lhs, rhs
        for k, v in rt.items():
            lt[k] -= v
        return family, indices, le, re_, {k: v for k, v in lt.items() if v}

    for k in range(n):
        for j in range(k):
            for i in range(j):
                # (g_k g_j) g_i  vs  g_k (g_j g_i)
                rhs = side(comm(k, j), after=((i, 1),))
                lhs = side(comm(j, i), before=((k, 1),))
                yield test("triple", (k + 1, j + 1, i + 1), lhs, rhs)
    for j in range(n):
        for i in range(j):
            # (g_j^{o_j}) g_i  vs  g_j^{o_j-1} (g_j g_i)
            lhs = side(power(j), after=((i, 1),))
            rhs = side(comm(j, i), before=((j, orders[j] - 1),))
            yield test("power_left", (j + 1, i + 1), lhs, rhs)
            # g_j (g_i^{o_i})  vs  (g_j g_i) g_i^{o_i-1}
            lhs = side(power(i), before=((j, 1),))
            rhs = side(comm(j, i), after=((i, orders[i] - 1),))
            yield test("power_right", (j + 1, i + 1), lhs, rhs)
    for i in range(n):
        # g_i (g_i^{o_i})  vs  (g_i^{o_i}) g_i
        lhs = side(power(i), before=((i, 1),))
        rhs = side(power(i), after=((i, 1),))
        yield test("power_self", (i + 1,), lhs, rhs)


def check_consistency(pres: PcPresentation) -> list[Violation]:
    """The failed overlap tests of ``pres``, read from its one overlap run."""
    return [
        Violation(family, indices, lhs, rhs)
        for family, indices, lhs, rhs, _ in pres.overlaps
        if lhs != rhs
    ]


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup held as an induced pc sequence (Holt–Eick–O'Brien,
    *Handbook of Computational Group Theory*, 2005, the chapter on
    computation with polycyclic groups), filled by ``PcGroup.subgroup``:
    ``terms[d]`` is the term of depth d, exponents 0 before d and 1 at d.
    The members are the products t^e t'^e' ··· of the terms in order of
    depth, each e below the relative order at its depth, so those orders
    multiply to the order.  Membership sifts; only ``elements`` enumerates.
    Both run on the group's handles: ``_powers[listed][d]`` holds those of
    t^0, ..., t^(o−1) for the term t of depth d, apart before and after the
    group is listed, as listing changes what a handle is."""

    group: "PcGroup"
    terms: dict[int, NormalWord] = field(default_factory=dict)
    _exponents: dict[Optional["Subgroup"], int] = field(
        default_factory=dict, init=False, repr=False
    )
    _powers: tuple[dict[int, list], dict[int, list]] = field(
        default_factory=lambda: ({}, {}), init=False, repr=False
    )

    @property
    def order(self) -> int:
        orders = self.group.pres.relative_orders
        return math.prod(orders[d] for d in self.terms)

    def sift(self, w: NormalWord) -> NormalWord:
        """w with its exponents cleared in order by powers of the terms on the
        left, up to a depth with no term: the identity exactly on members."""
        group = self.group
        return group._word_of[self._sift(group._handle_of[w])]

    def _sift(self, x):
        """``sift`` on the handle x: clearing exponent e at depth d folds x's
        walk onto the handle of t^(o−e)."""
        group = self.group
        word, walk = group._word_of, group._walk_of
        for d, o in enumerate(group.pres.relative_orders):
            e = word[x][d]
            if e:
                pows = self._term_powers(d)
                if pows is None:
                    break
                y = pows[o - e]
                for col in walk[x]:
                    y = col[y]
                x = y
        return x

    def _term_powers(self, d: int) -> Optional[list]:
        """The powers of the term of depth d, filled from ``terms`` the first
        time for the group's handles; None when no term has depth d."""
        group = self.group
        powers = self._powers[group._tabled]
        pows = powers.get(d)
        if pows is None and d in self.terms:
            t, o = group._handle_of[self.terms[d]], group.pres.relative_orders[d]
            pows = powers[d] = group._powers_up_to(t, o - 1)
        return pows

    def __contains__(self, w: NormalWord) -> bool:
        return self.sift(w) == self.group.identity

    def __le__(self, other: "Subgroup") -> bool:
        return all(t in other for t in self.terms.values())

    @cached_property
    def elements(self) -> frozenset[NormalWord]:
        """Every member, enumerated once, for the callers that sweep them."""
        group = self.group
        if self.order > DEFAULT_CAP:
            raise EnumerationCapExceeded(
                f"{group.pres.name}: subgroup order {self.order} exceeds cap {DEFAULT_CAP}"
            )
        members = [group._one]
        for d in sorted(self.terms, reverse=True):
            members = [group._times(x, y) for x in self._term_powers(d) for y in members]
        return frozenset(map(group._word_of.__getitem__, members))

    @cached_property
    def _abelian(self) -> bool:
        """Whether the terms commute pairwise, so that H is abelian."""
        group, terms = self.group, list(self.terms.values())
        return all(
            group.multiply(a, b) == group.multiply(b, a)
            for i, a in enumerate(terms)
            for b in terms[i + 1:]
        )

    def exponent(self, modulo: Optional["Subgroup"] = None) -> int:
        """The exponent of HN/N, H this subgroup and N the normal subgroup
        ``modulo`` (trivial when None), once per N.  When H's terms commute,
        or G is regular by class (``PcGroup._regular_by_class``), HN/N is
        abelian or regular, so its elements of order at most p^k form a
        subgroup (P. Hall, Proc. LMS 36, 1934) and the exponent is the lcm
        of the terms' orders modulo N; otherwise H's elements are swept, G
        itself over the indices of ``elements()``."""
        e = self._exponents.get(modulo)
        if e is not None:
            return e
        group = self.group
        whole = self.order == group.order
        # commutation first: ``_regular_by_class`` builds the lower central series
        if self._abelian or group._regular_by_class:
            e = math.lcm(*(group.element_order(t, modulo) for t in self.terms.values()))
        elif group._walk_prime is None:
            words = group.elements() if whole else self.elements
            e = math.lcm(*(group.element_order(w, modulo) for w in words))
        else:
            members = frozenset({group.identity}) if modulo is None else modulo.elements
            xs = range(group.order) if whole else map(group.position, self.elements)
            e = group._walk_prime ** max(group.pth_steps(x, members) for x in xs)
        self._exponents[modulo] = e
        return e


class _Same:
    """Word to handle and back in a group that is not listed: w itself."""

    def __getitem__(self, w: NormalWord) -> NormalWord:
        return w


class _CollectedWalks:
    """The walks of a group that is not listed: the walk of y is one step,
    a ``_RightProduct``, whose entry x is x·y, collected."""

    def __init__(self, collector: Collector):
        self.collector = collector

    def __getitem__(self, y: NormalWord) -> tuple["_RightProduct"]:
        return (_RightProduct(self.collector, word_of(y)),)


class _RightProduct:
    __slots__ = ("collector", "letters")

    def __init__(self, collector: Collector, letters: Word):
        self.collector, self.letters = collector, letters

    def __getitem__(self, x: NormalWord) -> NormalWord:
        return self.collector.collect(word_of(x) + self.letters)


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

    ``elements()`` lists the normal words lexicographically, at most
    ``DEFAULT_CAP`` of them.  Every algorithm is written once, on handles:
    an element's index in a listed group, its normal word otherwise; tuples
    are only the public face, each call converting its operands once.  A
    group of order at most ``TABLE_ORDER`` is listed when it is made, a
    larger one once something sweeps it.  In a listed group (Leedham-Green–
    Soicher, "Collection from the left and other strategies", JSC 9, 1990)
    each pc generator g has a right-multiplication column, entry x the index
    of x·g.  The columns are built whole, from the last generator up, out of
    the conjugation action and the power words of the presentation, with no
    collection (see ``_columns``).  Each element y has a walk, the columns
    of its letters in order, built once per group by last letter
    (``_walks``), and x·y folds x down y's walk: at most n(p−1) lookups,
    with no per-letter call.  Otherwise the walk of y is one step, which
    collects x's letters and y's.  An inverse is walked to the identity
    once and kept, or collected (``_inv``); a commutator [x, y] is x·y, y·x
    and then (y·x)^{-1} onto x·y (``_comm``); a power squares.

    Subgroups are induced pc sequences built by ``subgroup``, so γ₂, the lower
    central and derived series and the center cost a closure, not
    enumeration.  The closure queues handles: each term keeps the handles of
    its powers, a sift left-multiplies by one of them with one fold down
    the remainder's walk, and the queue takes each term's p-th power and
    commutators.  Every exponent is ``Subgroup.exponent``: exp(HN/N) for a
    subgroup H and a normal subgroup N, and ``exponent`` asks it of G itself.
    It reads the terms' orders when they commute or when the group is abelian
    or a p-group of class below p (``_regular_by_class``), which also gives
    the power subgroups G^k from the pc generators; otherwise it sweeps H,
    and G^k comes from the power set.  Each is kept.

    Index maps serve callers that sweep the whole group.  ``rows`` is the
    Cayley table, derived from the columns: y is y' = y − stride[m] times its
    last letter g_m (read off one table that the columns share), so row x
    reads entry y off column m at entry y'.  It
    takes |G|² entries, so only the capped pair sweeps of the law suites and
    the bar oracle ask for it.  In an enumerable p-group, ``pth(x)`` is the
    index of x^p, filled on demand by folding x down its own walk p − 1
    times.  A swept exponent steps along it from each element until it
    lands in N (``pth_steps``).  ``power_maps`` composes it into x ↦ x^(p^j)
    for j up to log_p exp(G), and ``element_orders`` reads x's order off
    them; ``power_set`` and the law suites read these two tables.
    ``element_order`` powers, in any presentation.
    """

    def __init__(self, pres: PcPresentation):
        pres.require_consistent()
        self.pres = pres
        self.collector = pres.collector
        self.identity: NormalWord = (0,) * pres.ngens
        # a handle is the normal word itself until the group is listed, at
        # construction when small (see ``TABLE_ORDER``)
        self._tabled, self._one = False, self.identity
        self._handle_of = self._word_of = _Same()
        self._walk_of = _CollectedWalks(self.collector)
        self._pth: Optional[list[int]] = None
        self._power_sets: dict[int, frozenset[NormalWord]] = {}
        self._power_subgroups: dict[int, Subgroup] = {}
        self._order_prime_factors = sorted(set(pres.relative_orders))
        # the prime of an enumerable p-group, whose sweeps walk the p-th-power map
        self._walk_prime = (
            self._order_prime_factors[0]
            if pres.order <= DEFAULT_CAP and len(self._order_prime_factors) == 1
            else None
        )
        if pres.order <= TABLE_ORDER:
            self.elements()

    # -- arithmetic -----------------------------------------------------------

    @property
    def order(self) -> int:
        return self.pres.order

    @property
    def ngens(self) -> int:
        return self.pres.ngens

    @cached_property
    def _generators(self) -> tuple[NormalWord, ...]:
        n = self.ngens
        return tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))

    def generator(self, i: int) -> NormalWord:
        if not 0 <= i < self.ngens:
            raise PcError(f"generator index {i} out of range")
        return self._generators[i]

    def generators(self) -> list[NormalWord]:
        """The pc generators' words, in a new list on each call."""
        return list(self._generators)

    def normalize(self, letters: Iterable[tuple[int, int]]) -> NormalWord:
        return self.collector.collect(letters)

    def multiply(self, u: NormalWord, v: NormalWord) -> NormalWord:
        handle = self._handle_of
        return self._word_of[self._times(handle[u], handle[v])]

    def inverse(self, u: NormalWord) -> NormalWord:
        return self._word_of[self._inv(self._handle_of[u])]

    def power(self, u: NormalWord, k: int) -> NormalWord:
        if k < 0:
            u, k = self.inverse(u), -k
        result = self.identity
        while k:
            if k & 1:
                result = self.multiply(result, u)
            u = self.multiply(u, u)
            k >>= 1
        return result

    def commutator(self, u: NormalWord, v: NormalWord) -> NormalWord:
        """[u, v] = u v u^{-1} v^{-1} = (uv)(vu)^{-1}."""
        handle = self._handle_of
        return self._word_of[self._comm(handle[u], handle[v])]

    # -- arithmetic on handles -------------------------------------------------
    # Only ``_inv`` and the tables that listing sets tell handles apart:
    # ``_handle_of`` (word to handle), ``_word_of`` (handle to word) and
    # ``_walk_of`` (entry y the steps that take x to x·y, each x = step[x]).

    def _times(self, x, y):
        """Handle of x·y: x folded down y's walk."""
        for col in self._walk_of[y]:
            x = col[x]
        return x

    def _inv(self, x):
        """Handle of x^{-1}.  Until the group is listed it collects the
        inverted letters; in a listed group it is filled on first use:
        x·g1^k1·g2^k2··· walks to the identity, each ki clearing exponent i,
        and x^{-1} = g1^k1·g2^k2···."""
        if not self._tabled:
            return self.normalize(tuple((g, -e) for g, e in reversed(word_of(x))))
        y = self._invs[x]
        if y < 0:
            words, columns, strides = self._words, self._columns, self._strides
            z, y = x, 0
            for g, o in enumerate(self.pres.relative_orders):
                e = words[z][g]
                if e:
                    col = columns[g]
                    for _ in range(o - e):
                        z = col[z]
                    y += (o - e) * strides[g]
            self._invs[x] = y
        return y

    def _comm(self, x, y):
        """Handle of [x, y] = (xy)(yx)^{-1}: three products and an inverse."""
        return self._times(self._times(x, y), self._inv(self._times(y, x)))

    def _powers_up_to(self, x, k: int) -> list:
        """Handles of x^0, x^1, ..., x^k, each the last folded down x's walk."""
        walk = self._walk_of[x]
        y = self._one
        pows = [y]
        for _ in range(k):
            for col in walk:
                y = col[y]
            pows.append(y)
        return pows

    def element_order(self, u: NormalWord, modulo: Optional[Subgroup] = None) -> int:
        """The least k > 0 with u^k in ``modulo`` (the identity when None), by
        powering: up u's p-th powers in a p-group, else down from |G|."""

        def inside(w: NormalWord) -> bool:
            return w == self.identity if modulo is None else w in modulo

        primes = self._order_prime_factors
        if len(primes) == 1:
            k = 1
            while not inside(u):
                u, k = self.power(u, primes[0]), k * primes[0]
            return k
        o = self.order
        for q in primes:
            while o % q == 0 and inside(self.power(u, o // q)):
                o //= q
        return o

    def pth(self, x: int) -> int:
        """Index of (element x)^p in a listed p-group: x folded p − 1 times
        down its own walk, once per x."""
        table = self._pth
        if table is None:
            if self._walk_prime is None:
                raise PcError(f"{self.pres.name}: no p-th-power map for this presentation")
            table = self._pth = [-1] * self.order
        y = table[x]
        if y < 0:
            walk = self._walks[x]
            y = x
            for _ in range(self._walk_prime - 1):
                for col in walk:
                    y = col[y]
            table[x] = y
        return y

    def pth_steps(self, x: int, members: frozenset[NormalWord]) -> int:
        """Steps of the p-th-power map from index x until it reaches
        ``members``: x^(p^k) is the first power of x there."""
        k = 0
        while self._words[x] not in members:
            x = self.pth(x)
            k += 1
        return k

    @cached_property
    def power_maps(self) -> list[list[int]]:
        """In an enumerable p-group, entry j maps each index x to the index of
        x^(p^j), for j = 0 up to log_p exp(G), where the map is constant at
        the identity: each map is ``pth`` after the one before."""
        step = [self.pth(x) for x in range(self.order)]
        maps = [list(range(self.order))]
        while any(maps[-1]):
            maps.append([step[x] for x in maps[-1]])
        return maps

    @cached_property
    def element_orders(self) -> list[int]:
        """Entry x is the order of element x, p^k for the k power maps that do
        not send x to the identity."""
        return [self._walk_prime ** sum(map(bool, powers)) for powers in zip(*self.power_maps)]

    # -- enumeration and subgroups -------------------------------------------

    def elements(self) -> tuple[NormalWord, ...]:
        """Every normal word, in lexicographic order, built once; from then on
        products walk the index tables."""
        if self.order > DEFAULT_CAP:
            raise EnumerationCapExceeded(
                f"{self.pres.name}: order {self.order} exceeds cap {DEFAULT_CAP}"
            )
        if not self._tabled:
            # from here on a handle is an element's index; ``_invs`` holds the
            # inverses' indices that ``_inv`` has filled, −1 elsewhere
            self._tabled, self._one, self._invs = True, 0, [-1] * self.order
            self._handle_of, self._word_of, self._walk_of = self._index, self._words, self._walks
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
    def _strides(self) -> list[int]:
        """stride[g] is the index of g_g: an index is Σ e_g·stride[g]."""
        orders = self.pres.relative_orders
        return [math.prod(orders[g + 1:]) for g in range(self.ngens)]

    @cached_property
    def _last_letters(self) -> list[int]:
        """Entry y is the last letter of element y, the largest g with a
        nonzero exponent (0 at the identity): the least g whose stride
        divides y."""
        last = [0] * self.order
        for g in reversed(range(self.ngens)):
            step = self._strides[g]
            last[::step] = [g] * len(range(0, self.order, step))
        return last

    @cached_property
    def _walks(self) -> list[tuple[list[int], ...]]:
        """Entry y is the columns that a right multiplication by element y
        walks, one per letter, g_1 e_1 times, then g_2 e_2 times, and so on:
        built by last letter, y = y'·g_m with y' = y − stride[m], from
        walk[y'] and column m."""
        columns, strides, last = self._columns, self._strides, self._last_letters
        walks: list[tuple[list[int], ...]] = [()]
        for y in range(1, self.order):
            m = last[y]
            walks.append(walks[y - strides[m]] + (columns[m],))
        return walks

    @cached_property
    def _columns(self) -> list[list[int]]:
        """The right-multiplication columns: entry x of column g is the index
        of x·g_g.  Column g is built whole from the columns after it.  Write
        x = a·b, a the letters of x up to g and b in G_{g+1} = <g_{g+1}, ...>,
        the entries below stride[g].  Then x·g = (a·g)·b^g: while a's
        exponent at g is below o_g − 1, a·g is a normal word and the entry is
        x − b + stride[g] + conj[b]; at o_g − 1, a·g = prefix·w_g and the
        entry is prefix + lead[conj[b]].  Over G_{g+1}, conj[r] is the index
        of r^g and lead[c] that of w_g·c, both built by last letter: with
        r = r'·g_m, r^g = r'^g·g_m·w_{m,g} (from g_m g = g g_m w_{m,g}) and
        w_g·r = (w_g·r')·g_m.  This needs a consistent presentation, which
        ``__init__`` requires.  Building them lists G (``elements``)."""
        self.elements()
        orders, strides, last = self.pres.relative_orders, self._strides, self._last_letters
        comm_words = self.pres.comm_dict
        columns: list[list[int]] = [[] for _ in range(self.ngens)]
        # one int object per index, shared by all columns: an entry costs one pointer
        ids = list(range(self.order))
        for g in reversed(range(self.ngens)):
            size, o = strides[g], orders[g]
            # the columns that g_m·w_{m,g} walks, one per letter
            walks = {
                m: [columns[m]]
                + [columns[h] for h, e in comm_words.get((m, g), ()) for _ in range(e)]
                for m in range(g + 1, self.ngens)
            }
            conj = [0] * size
            lead = [0] * size
            lead[0] = sum(e * strides[h] for h, e in self.pres.power_words[g])
            for r in range(1, size):
                m = last[r]
                y = conj[r - strides[m]]
                for column in walks[m]:
                    y = column[y]
                conj[r] = y
                lead[r] = columns[m][lead[r - strides[m]]]
            # the entries of one period, x = prefix + e·size + b, less prefix
            period = [e + c for e in range(size, size * o, size) for c in conj]
            period.extend(lead[c] for c in conj)
            take = itemgetter(*period)
            col = columns[g]
            for prefix in range(0, self.order, size * o):
                col.extend(take(ids[prefix:prefix + size * o]))
        return columns

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The Cayley table over ``elements()``: rows[x][y] is the index of
        x·y.  Each entry is one column lookup (see the class docstring)."""
        columns, strides, last = self._columns, self._strides, self._last_letters
        # times[y] maps x to the index of x·y
        times = [list(range(self.order))]
        for y in range(1, self.order):
            m = last[y]
            col = columns[m]
            times.append([col[t] for t in times[y - strides[m]]])
        return tuple(zip(*times))

    @cached_property
    def inverses(self) -> list[int]:
        """inverses[x] is the index of the inverse of element x."""
        self.elements()
        for x in range(self.order):
            self._inv(x)
        return self._invs

    def subgroup(
        self, gens: Iterable[NormalWord], conjugators: Sequence[NormalWord] = ()
    ) -> Subgroup:
        """<gens>, closed under conjugation by ``conjugators`` too (the normal
        closure of ``gens`` in <gens, conjugators>), on handles.  Each queued
        element is sifted; a remainder becomes the term of its depth,
        normalised to leading exponent 1 and kept with its powers, and queues
        its p-th power, its commutators with the other terms and its
        commutators with the conjugators."""
        sub = Subgroup(self)
        orders, word, handle = self.pres.relative_orders, self._word_of, self._handle_of
        partners = [handle[c] for c in conjugators]
        terms: list = []
        queue = [handle[g] for g in gens]
        while queue:
            x = sub._sift(queue.pop())
            if x == self._one:
                continue
            w = word[x]
            d = next(i for i, e in enumerate(w) if e)
            o = orders[d]
            t = self._powers_up_to(x, pow(w[d], -1, o))[-1]
            pows = self._powers_up_to(t, o)
            queue.append(pows.pop())
            queue.extend(self._comm(t, s) for s in terms)
            queue.extend(self._comm(c, t) for c in partners)
            sub.terms[d] = word[t]
            sub._powers[self._tabled][d] = pows
            terms.append(t)
        return sub

    def full_subgroup(self) -> Subgroup:
        return self._full

    @cached_property
    def _full(self) -> Subgroup:
        return Subgroup(self, dict(enumerate(self.generators())))

    # -- characteristic structure ---------------------------------------------

    @cached_property
    def gamma2(self) -> Subgroup:
        """γ₂ = [G, G], the normal closure of the generators' commutators."""
        gens = self.generators()
        return self.subgroup(
            [self.commutator(a, b) for i, a in enumerate(gens) for b in gens[i + 1:]], gens
        )

    def lower_central_series(self) -> list[Subgroup]:
        """[γ1, γ2, ...] down to (and including) the trivial subgroup."""
        return list(self._lower_central)

    def gamma(self, m: int) -> Subgroup:
        """γ_m; past the end of the series, its last term, the trivial subgroup."""
        lcs = self._lower_central
        return lcs[min(m, len(lcs)) - 1]

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
            terms = list(nxt.terms.values())
            others = terms if partners is None else partners
            comms = [self.commutator(a, b) for a in terms for b in others]
            nxt = self.subgroup(comms, self.generators())
        return tuple(series)

    def center(self) -> Subgroup:
        return self._center

    @cached_property
    def _center(self) -> Subgroup:
        """Z(G) down the central series G_k = <g_k, ..., g_n>.  With C the
        preimage of Z(G/G_k), z -> (exponent k of [z, g_i])_{i<k} is a
        homomorphism from C to C_q^k, q = o_k, because G_k/G_{k+1} is central
        (and [G, G_i] <= G_{i+1} clears i >= k).  Its kernel, the preimage of
        Z(G/G_{k+1}), is generated by G_k and the products t^c of C's terms
        t_1, ..., t_r above depth k over an echelon basis of the nullspace
        of their images mod q.  C/G_k is abelian, so G_k holds the terms'
        commutators, and no power of a term is needed: let e be the exponent
        vector, over the t_i, of a kernel element, and i its first nonzero
        position.  If a basis vector c starts at i, e - e_i c starts later.
        If none does, the relative order at t_i is q (a power relation
        t_i^o = t^f with o prime to q puts o e_i - f, which starts at i, in
        the nullspace) and q divides e_i, so the power relation moves e_i to
        later positions."""
        gens = self.generators()
        center = self.full_subgroup()
        if not self.pres.comm_words:
            return center
        for k, q in enumerate(self.pres.relative_orders):
            top = [t for d, t in sorted(center.terms.items()) if d < k]
            images = [[self.commutator(t, g)[k] for g in gens[:k]] for t in top]
            if not any(map(any, images)):
                continue
            kernel = gens[k:]
            for c in _nullspace_mod(images, q):
                z = self.identity
                for t, e in zip(top, c):
                    z = self.multiply(z, self.power(t, e))
                kernel.append(z)
            center = self.subgroup(kernel)
        return center

    def power_subgroup(self, k: int) -> Subgroup:
        """G^k = <x^k : x in G>, built once per k.  When ``_regular_by_class``
        holds, the k-th powers of G are the subgroup they generate (P. Hall,
        Proc. LMS 36, 1934), the normal closure of the generators' k-th
        powers; otherwise the power set is swept."""
        sub = self._power_subgroups.get(k)
        if sub is None:
            if self._regular_by_class:
                gens = self.generators()
                sub = self.subgroup([self.power(g, k) for g in gens], gens)
            else:
                sub = self.subgroup(self.power_set(k))
            self._power_subgroups[k] = sub
        return sub

    def power_set(self, k: int) -> frozenset[NormalWord]:
        """The bare set {x^k : x in G} of a p-group (not necessarily a
        subgroup), built once per k.  x -> x^m permutes G for m prime to p,
        so the set is the image of the power map of the p-part of k."""
        if k not in self._power_sets:
            words, maps = self.elements(), self.power_maps
            j = max(j for j in range(len(maps)) if k % self._walk_prime**j == 0)
            self._power_sets[k] = frozenset(words[x] for x in maps[j])
        return self._power_sets[k]

    def exponent(self, modulo: Optional[Subgroup] = None) -> int:
        """exp(G), or exp(G/N) for the normal subgroup N = ``modulo``: the
        whole group's ``Subgroup.exponent``."""
        return self.full_subgroup().exponent(modulo)

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

    @cached_property
    def _regular_by_class(self) -> bool:
        """Abelian, or a p-group of class below p: the criteria that make a
        group regular exactly."""
        cls = self.nilpotency_class()
        p = self.pres.prime
        return cls <= 1 or (p is not None and cls < p)

    def is_regular(self) -> Optional[bool]:
        """Exact for |G| <= 81 (exhaustive pairs) and for the standard criteria
        (``_regular_by_class``; nonabelian 2-group); otherwise a sampled pass
        returns False when a sampled pair fails and None ("unknown") when
        every sampled pair passes."""
        p = self.pres.prime
        if p is None:
            return None
        if self._regular_by_class:
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
        if all(self._regular_pair(a, b, targets) for a, b in pairs):
            return verdict
        return False

    def _regular_pair(
        self, a: NormalWord, b: NormalWord, targets: dict[frozenset, frozenset]
    ) -> bool:
        # s := b^{-p} a^{-p} (ab)^p = (a^p b^p)^{-1} (ab)^p must lie in
        # <x^p : x in γ₂(<a,b>)>; p-th powers come from the p-th-power map
        def pth(w: NormalWord) -> NormalWord:
            return self._words[self.pth(self.position(w))]

        s = self.multiply(self.inverse(self.multiply(pth(a), pth(b))), pth(self.multiply(a, b)))
        if s == self.identity:
            return True
        key = frozenset((a, b))
        target = targets.get(key)
        if target is None:
            # γ₂(H) = normal closure of [a,b] in H = <a,b>
            gamma2 = self.subgroup([self.commutator(a, b)], (a, b))
            target = self.subgroup({pth(x) for x in gamma2.elements})
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
                is_powerful = gamma2 <= self.power_subgroup(4)
            else:
                is_powerful = gamma2 <= gp
            for m in range(2, p):
                if self.gamma(m) <= gp:
                    condition1_m = m
                    break
            condition2 = self.gamma(p) <= self.power_subgroup(p * p)
            e = central_exp
            while e > 1:
                if e % p:
                    raise PcError(f"{self.pres.name}: central quotient exponent not a p-power")
                e //= p
                central_pn += 1

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


def _nullspace_mod(rows: list[list[int]], q: int) -> list[list[int]]:
    """A basis of {c : sum_i c_i rows[i] = 0 mod q}, q prime, in echelon form.
    Each row is reduced, with the combination that reduces it, against the
    rows after it; one that reduces to zero gives the vector with c_i = 1
    and c_j = 0 for j < i."""
    r, width = len(rows), len(rows[0])
    pivots: list[tuple[int, list[int]]] = []  # (column, row with a 1 there)
    null = []
    for i in reversed(range(r)):
        v = [x % q for x in rows[i]] + [int(j == i) for j in range(r)]
        for col, b in pivots:
            if v[col]:
                f = v[col]
                v = [(x - f * y) % q for x, y in zip(v, b)]
        col = next((j for j in range(width) if v[j]), None)
        if col is None:
            null.append(v[width:])
        else:
            inv = pow(v[col], -1, q)
            pivots.append((col, [x * inv % q for x in v]))
    return null


@lru_cache(maxsize=8)
def group_of(pres: PcPresentation) -> PcGroup:
    """The group of ``pres``, kept with its tables while it is among the few
    most recently asked for."""
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
