"""Schur multipliers by two independent methods, Schur covers, and the
exterior-square exponent.

The workhorse is the tails construction: adjoin one central integer tail per
relation of a consistent pc presentation, read the relations among the tails
from the presentation's one tailed run of the consistency tests, and read off
M(G) as the torsion of Z^r modulo the tail relations (Hopf's formula; the free
rank must come out equal to the number of generators).  The oracle is
the normalized inhomogeneous bar complex, which knows nothing about collection.

One pipeline per group: ``schur_cover`` takes one Smith normal form (with
transforms) of one tails matrix and reads M(G) from its diagonal and the cover
presentation from its column transform.  The cover's PcGroup H is built once
and carried in the ``CoverResult``; its γ₂ serves the stem check and
``exterior_exponent``.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .intlinalg import LatticeBasis, SNFResult, snf
from .pcgroup import PcError, PcGroup, PcPresentation, Word, group_of, make_presentation

DEFAULT_ORACLE_CAP = 32
ORACLE_HARD_CAP = 81


class MultiplierError(PcError):
    pass


class OracleCapExceeded(MultiplierError):
    pass


@dataclass(frozen=True)
class AbelianInvariants:
    """Invariant factors d_1 | d_2 | ... (all > 1) plus a free rank."""

    torsion: tuple[int, ...]
    free_rank: int = 0

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise MultiplierError(f"torsion chain {self.torsion} violates divisibility")
        if any(d <= 1 for d in self.torsion):
            raise MultiplierError(f"torsion entries must exceed 1: {self.torsion}")

    @property
    def order(self) -> int:
        return math.prod(self.torsion)

    @property
    def exponent(self) -> int:
        return self.torsion[-1] if self.torsion else 1

    def __str__(self):
        parts = [str(d) for d in self.torsion] + ["Z"] * self.free_rank
        return "[" + ", ".join(parts) + "]"


# -- bar-complex oracle -------------------------------------------------------


def multiplication_table(group: PcGroup) -> Sequence[Sequence[int]]:
    """Square index table over the lexicographic element list: entry [g][h] = gh
    (the group's Cayley table ``rows``)."""
    return group.rows


def _find_identity(table: Sequence[Sequence[int]]) -> int:
    m = len(table)
    for e in range(m):
        if all(table[e][x] == x for x in range(m)) and all(
            table[x][e] == x for x in range(m)
        ):
            return e
    raise MultiplierError("table has no identity element")


def _span(table: Sequence[Sequence[int]], e: int, gens: Sequence[int]) -> set[int]:
    """The subgroup generated by ``gens``: closure of {e} under right
    multiplication by them (in a finite group the monoid is the group)."""
    span, frontier = {e}, [e]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = table[x][s]
            if y not in span:
                span.add(y)
                frontier.append(y)
    return span


def _generating_set(table: Sequence[Sequence[int]], e: int) -> list[int]:
    """An irredundant generating set read off the table alone: a greedy
    closure, then drop every element the others already generate.  For a
    p-group it has d(G) elements (Burnside basis theorem)."""
    m = len(table)
    gens: list[int] = []
    span = {e}
    for g in range(m):
        if g not in span:
            gens.append(g)
            span = _span(table, e, gens)
    for s in list(gens):
        rest = [t for t in gens if t != s]
        if len(_span(table, e, rest)) == m:
            gens = rest
    return gens


def bar_homology(
    table: Sequence[Sequence[int]], degree: int, cap: int = DEFAULT_ORACLE_CAP
) -> AbelianInvariants:
    """Integral homology H_degree(G, Z) from the normalized bar complex.

    d2[g|h] = [h] - [gh] + [g] and d3[g|h|k] = [h|k] - [gh|k] + [g|hk] - [g|h],
    with tuples containing the identity dropped.

    im d3 is spanned by the rows d3[g|h|s] with s in an irredundant generating
    set S of G, read off the table: d3∘d4 = 0 on [a|b|c|d] gives
    d3[a|b|cd] = d3[b|c|d] - d3[ab|c|d] + d3[a|bc|d] + d3[a|b|c], so induction
    on the length of k as a word in S writes every d3[a|b|k] with ±1
    coefficients.  The lattice is the same, not just one of the same rank.
    All d2 rows are kept (restricting them grows coefficients).  The C2
    coordinates are numbered from the last pair [g|h] down, so the lattice
    pivots on the heaviest pairs first and fill-in stays small.
    """
    if degree not in (1, 2):
        raise MultiplierError("only degrees 1 and 2 are supported")
    m = len(table)
    if cap > ORACLE_HARD_CAP:
        raise OracleCapExceeded(f"oracle cap {cap} exceeds hard limit {ORACLE_HARD_CAP}")
    if m > cap:
        raise OracleCapExceeded(f"group order {m} exceeds oracle cap {cap}")
    if m > DEFAULT_ORACLE_CAP:
        warnings.warn(
            f"bar oracle running above the default cap (|G| = {m})", RuntimeWarning
        )
    e = _find_identity(table)
    nontriv = [g for g in range(m) if g != e]
    idx1 = {g: i for i, g in enumerate(nontriv)}
    pairs = [(g, h) for g in nontriv for h in nontriv]

    def chain(terms, coord: dict) -> dict[int, int]:
        """Sparse vector of a signed sum of cells; cells that contain the
        identity have no coordinate and are dropped."""
        vec: dict[int, int] = {}
        for cell, coeff in terms:
            c = coord.get(cell)
            if c is None:
                continue
            nv = vec.get(c, 0) + coeff
            if nv:
                vec[c] = nv
            else:
                del vec[c]
        return vec

    d2_lattice = LatticeBasis(len(nontriv))
    for g, h in pairs:
        d2_lattice.add(chain(((h, 1), (table[g][h], -1), (g, 1)), idx1))
    if degree == 1:
        torsion, free = d2_lattice.quotient_invariants()
        if free:
            raise MultiplierError(f"H1 free rank {free} nonzero for a finite group")
        return AbelianInvariants(torsion)

    idx2 = {gh: i for i, gh in enumerate(reversed(pairs))}
    gens = _generating_set(table, e)
    d3_lattice = LatticeBasis(len(pairs))
    for g, h in pairs:
        gh = table[g][h]
        for k in gens:
            hk = table[h][k]
            vec = chain((((h, k), 1), ((gh, k), -1), ((g, hk), 1), ((g, h), -1)), idx2)
            if vec:
                d3_lattice.add(vec)
    torsion, coker_free = d3_lattice.quotient_invariants()
    # rank H2 = dim ker d2 - rank d3 = (dim2 - rank d2) - (dim2 - coker_free)
    h2_free = coker_free - d2_lattice.rank
    if h2_free:
        raise MultiplierError(
            f"H2 free rank {h2_free} nonzero for a finite group (internal error)"
        )
    # torsion(C2 / im d3) = torsion(H2): the quotient by ker d2 is free, so
    # the extension of H2 by im d2 splits.
    return AbelianInvariants(torsion)


# -- tails method --------------------------------------------------------------


def _tail_columns(ntails: int, tail_perm: Optional[Sequence[int]]) -> list[int]:
    """Column of each tail in the tails matrix: old tail tail_perm[j] sits in
    column j."""
    if tail_perm is None:
        return list(range(ntails))
    if sorted(tail_perm) != list(range(ntails)):
        raise MultiplierError("tail_perm is not a permutation of the tails")
    columns = [0] * ntails
    for j, old in enumerate(tail_perm):
        columns[old] = j
    return columns


def tails_matrix(
    pres: PcPresentation, tail_perm: Optional[Sequence[int]] = None
) -> tuple[list[dict[int, int]], int]:
    """The sparse rows of the tails matrix and its column (tail) count.

    One row per overlap test, zero rows included, read from the
    presentation's one tailed overlap run: the difference of the two sides'
    tail vectors.  ``tail_perm`` reorders the tail columns (column j reads old
    tail tail_perm[j]); the multiplier must not depend on it."""
    pres.require_consistent()
    r = pres.collector.ntails
    new_col = _tail_columns(r, tail_perm)
    return [{new_col[k]: v for k, v in row.items()} for *_, row in pres.overlaps], r


def _hopf_multiplier(pres: PcPresentation, ntails: int, result: SNFResult) -> AbelianInvariants:
    """M(G) from the SNF of the tails matrix: the torsion of Z^ntails modulo
    the tail relations, whose free rank must equal the generator count."""
    free = ntails - result.rank
    if free != pres.ngens:
        raise MultiplierError(
            f"{pres.name}: tails free rank {free} != ngens {pres.ngens} "
            "(Hopf formula violated)"
        )
    return AbelianInvariants(tuple(d for d in result.diagonal if d > 1))


def crosscheck_multiplier(
    pres: PcPresentation, tails: AbelianInvariants, oracle_cap: int = DEFAULT_ORACLE_CAP
) -> AbelianInvariants:
    """``tails``, once the bar oracle has found the same multiplier."""
    bar = schur_multiplier(pres, method="bar", oracle_cap=oracle_cap)
    if tails != bar:
        raise MultiplierError(
            f"{pres.name}: method disagreement: tails {tails} vs bar {bar}"
        )
    return tails


def schur_multiplier(
    pres: PcPresentation,
    method: str = "tails",
    oracle_cap: int = DEFAULT_ORACLE_CAP,
    tail_perm: Optional[Sequence[int]] = None,
) -> AbelianInvariants:
    if method not in ("tails", "bar", "both"):
        raise MultiplierError(f"unknown method {method!r}")
    if method == "bar":
        return bar_homology(multiplication_table(group_of(pres)), 2, cap=oracle_cap)
    rows, ntails = tails_matrix(pres, tail_perm)
    tails = _hopf_multiplier(pres, ntails, snf(rows, ntails))
    return crosscheck_multiplier(pres, tails, oracle_cap) if method == "both" else tails


# -- Schur cover ----------------------------------------------------------------


@dataclass(frozen=True)
class CoverResult:
    cover: PcPresentation
    kernel_generators: tuple[tuple[int, ...], ...]
    multiplier: AbelianInvariants
    group: PcGroup = field(compare=False, repr=False)  # H, built once from cover


def _prime_power(d: int) -> tuple[int, int]:
    """d = p^k with p prime, k >= 1; errors otherwise."""
    for p in range(2, d + 1):
        if d % p == 0:
            k = 0
            while d % p == 0:
                d //= p
                k += 1
            if d != 1:
                raise MultiplierError(
                    f"kernel invariant is not a prime power (leftover {d})"
                )
            return p, k
    raise MultiplierError("kernel invariant 1 has no prime decomposition")


def schur_cover(
    pres: PcPresentation, tail_perm: Optional[Sequence[int]] = None
) -> CoverResult:
    """A Schur cover H of G: central extension by M(G) with kernel inside
    Z(H) ∩ γ₂(H), built by rewriting relation tails in an SNF basis."""
    rows, r = tails_matrix(pres, tail_perm)
    n = pres.ngens
    result = snf(rows, r, want_transforms=True)
    multiplier = _hopf_multiplier(pres, r, result)
    Q = result.col_transform
    col_of_old = _tail_columns(r, tail_perm)

    # Keep one central generator per invariant d > 1, refined into a chain of
    # prime-order generators h_1, ..., h_k with h_l^p = h_{l+1}, h_k^p = 1.
    chains = []  # (snf column j, start index among new gens, chain length, p, d)
    new_orders: list[int] = []
    for j, d in enumerate(result.diagonal):
        if d > 1:
            p, k = _prime_power(d)
            chains.append((j, n + len(new_orders), k, p, d))
            new_orders.extend([p] * k)

    def tail_word(t: int) -> Word:
        """Normal word (over the new generators) of the old tail t: the SNF
        basis change gives tail_t = prod_j f_j^{Q[col_t][j]}."""
        out = []
        for j, start, k, p, d in chains:
            c = Q[col_of_old[t]][j] % d
            for l in range(k):
                c, digit = divmod(c, p)
                if digit:
                    out.append((start + l, digit))
        return tuple(sorted(out))

    power_words: dict[int, Word] = {}
    for i in range(n):
        w = tuple(pres.power_words[i]) + tail_word(i)
        if w:
            power_words[i] = w
    comm_words: dict[tuple[int, int], Word] = {}
    for pair_pos, (j, i) in enumerate(pres.collector.pairs):
        base = pres.comm_dict.get((j, i), ())
        w = tuple(base) + tail_word(n + pair_pos)
        if w:
            comm_words[(j, i)] = w
    for _j, start, k, p, _d in chains:
        for l in range(k - 1):
            power_words[start + l] = ((start + l + 1, 1),)

    cover_pres = make_presentation(
        name=f"{pres.name}.cover",
        orders=list(pres.relative_orders) + new_orders,
        power_words=power_words,
        comm_words=comm_words,
        prime=pres.prime if all(o == pres.prime for o in new_orders) else None,
    )

    # Self-checks: consistency (PcGroup raises otherwise), the order law, and
    # the stem property kernel <= Z(H) ∩ γ₂(H).
    cover_group = PcGroup(cover_pres)
    expected_order = pres.order * multiplier.order
    if cover_pres.order != expected_order:
        raise MultiplierError(
            f"{pres.name}: cover order {cover_pres.order} != {expected_order}"
        )
    kernel_gens = tuple(
        cover_group.generator(i) for i in range(n, cover_pres.ngens)
    )
    for h in kernel_gens:
        for i in range(n):
            if cover_group.commutator(h, cover_group.generator(i)) != cover_group.identity:
                raise MultiplierError(f"{pres.name}: cover kernel is not central")
    if kernel_gens:
        gamma2 = cover_group.gamma2
        for h in kernel_gens:
            if h not in gamma2:
                raise MultiplierError(f"{pres.name}: cover kernel not inside γ₂ (stem fails)")
    return CoverResult(cover_pres, kernel_gens, multiplier, cover_group)


def exterior_exponent(pres: PcPresentation, cover_result: CoverResult) -> int:
    """exp(G ∧ G) = exp(γ₂(H)) for the Schur cover H of ``cover_result``;
    exp(M) and exp(γ₂(G)) must divide it."""
    value = cover_result.group.gamma2.exponent()
    if value % cover_result.multiplier.exponent:
        raise MultiplierError(
            f"{pres.name}: exp(M) = {cover_result.multiplier.exponent} does not "
            f"divide exterior exponent {value}"
        )
    if value % group_of(pres).gamma2.exponent():
        raise MultiplierError(
            f"{pres.name}: exp(γ₂(G)) does not divide exterior exponent {value}"
        )
    return value
