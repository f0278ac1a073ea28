"""Schur multipliers by two independent methods, Schur covers, and the
exterior-square exponent.

The workhorse is the tails construction: adjoin one central integer tail per
relation of a consistent pc presentation, read the relations among the tails
from the presentation's one tailed run of the consistency tests, and read off
M(G) as the torsion of Z^r modulo the tail relations (Hopf's formula; the free
rank must come out equal to the number of generators).  The oracle is
the normalized inhomogeneous bar complex, which knows nothing about collection.

One pipeline per group: ``schur_cover`` runs one elimination of one tails
matrix, ``intlinalg.smith_form``, and reads M(G) from its diagonal and the
cover presentation from where each tail lands in the Smith coordinates.  The
cover's PcGroup H is built once and carried in the ``CoverResult``; its γ₂
serves the stem check and ``exterior_exponent``.  When M(G) is trivial the
cover has G's own relation words, and H is G's group.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .intlinalg import LatticeBasis, SNFResult, smith_form
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


def _cayley_tree(
    table: Sequence[Sequence[int]], e: int, gens: Sequence[int]
) -> dict[int, Optional[tuple[int, int]]]:
    """A BFS tree of the Cayley graph of the subgroup ``gens`` generate, from
    e: each member x, in BFS order, maps to its tree edge (h, j) with
    h·gens[j] = x, and e maps to None.  It is the closure of {e} under right
    multiplication by ``gens`` (in a finite group the monoid is the group)."""
    tree: dict[int, Optional[tuple[int, int]]] = {e: None}
    order = [e]
    for h in order:
        row = table[h]
        for j, s in enumerate(gens):
            x = row[s]
            if x not in tree:
                tree[x] = (h, j)
                order.append(x)
    return tree


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
            span = _cayley_tree(table, e, gens)
    for s in list(gens):
        rest = [t for t in gens if t != s]
        if len(_cayley_tree(table, e, rest)) == m:
            gens = rest
    return gens


def _check_oracle_cap(order: int, cap: int) -> None:
    if cap > ORACLE_HARD_CAP:
        raise OracleCapExceeded(f"oracle cap {cap} exceeds hard limit {ORACLE_HARD_CAP}")
    if order > cap:
        raise OracleCapExceeded(f"group order {order} exceeds oracle cap {cap}")


def _add_terms(vec: dict[int, int], terms) -> dict[int, int]:
    """vec += the sum of v·[c] over (c, v) in ``terms``, in place; a cell c of
    None lies at e and drops out, and so do zero entries."""
    for c, v in terms:
        if c is not None:
            new = vec.get(c, 0) + v
            if new:
                vec[c] = new
            else:
                del vec[c]
    return vec


def bar_homology(
    table: Sequence[Sequence[int]], degree: int, cap: int = DEFAULT_ORACLE_CAP
) -> AbelianInvariants:
    """Integral homology H_degree(G, Z) from the normalized bar complex.

    d2[g|h] = [h] - [gh] + [g] and d3[g|h|k] = [h|k] - [gh|k] + [g|hk] - [g|h],
    with cells containing the identity dropped.

    The rows d2[g|s] and d3[g|h|s] with s in an irredundant generating set S,
    read off the table, span im d2 and im d3: d2∘d3 = 0 on [g|h|s] and
    d3∘d4 = 0 on [a|b|c|s] write d2[g|hs] and d3[a|b|cs] as ±1 sums of rows
    whose last entry is shorter as a word in S, so induction on that length
    gives the same lattices, not just ones of the same rank.

    Most of those rows are solved by hand along a BFS tree of the Cayley graph
    Γ(G, S) from e, whose first level is S.  A tree edge h → hs with h ≠ e
    gives the rows d2[h|s] and d3[g|h|s], with a unit entry at [hs],
    respectively [g|hs]; their other cells are kept ones, [s] or [y|s], or
    lie closer to e, [h] or [g|h].  So each row writes its cell along the
    tree path to x = hs: [x] is the sum of the letters [s] on the path, and
    [g|x] is the sum over the path's edges (h, s) of [gh|s] - [h|s].  Each
    eliminated coordinate is removed by exactly one row, with a unit there,
    in tree order, so the change of coordinates is unimodular.  What is left
    is free on the cells [s] (degree 1) and [y|s] (degree 2), and only the
    non-tree rows, rewritten in them, reach the lattice: the cokernel is the
    same group, not just one with the same torsion.  The cells [y|s] are
    numbered from the deepest y up and the d3 rows go in shortest first,
    which keeps the lattice's fill-in small.
    """
    if degree not in (1, 2):
        raise MultiplierError("only degrees 1 and 2 are supported")
    m = len(table)
    _check_oracle_cap(m, cap)
    if m > DEFAULT_ORACLE_CAP:
        warnings.warn(
            f"bar oracle running above the default cap (|G| = {m})", RuntimeWarning
        )
    e = _find_identity(table)
    gens = _generating_set(table, e)
    k = len(gens)
    tree = _cayley_tree(table, e, gens)
    below = list(tree)[1:]  # BFS order: e's children gens first
    # each edge h → x = h·gens[j] with h ≠ e off the tree gives one row
    non_tree = [(h, j, table[h][s]) for h in below for j, s in enumerate(gens)
                if tree[table[h][s]] != (h, j)]

    path: list[dict[int, int]] = [{}] * m  # [x] over the letters [gens[j]]
    for x in below:
        h, j = tree[x]
        path[x] = _add_terms(dict(path[h]), ((j, 1),))
    d2_lattice = LatticeBasis(k)
    for h, j, x in non_tree:  # d2[h|s] = [h] + [s] - [hs]
        vec = _add_terms(dict(path[h]), ((j, 1),))
        d2_lattice.add(_add_terms(vec, ((c, -v) for c, v in path[x].items())))
    h1_torsion, h1_free = d2_lattice.quotient_invariants()
    if degree == 1:
        if h1_free:
            raise MultiplierError(f"H1 free rank {h1_free} nonzero for a finite group")
        return AbelianInvariants(h1_torsion)

    cell: list[list[Optional[int]]] = [[None] * k] * m  # cell[y][j] = [y|gens[j]]
    for i, y in enumerate(reversed(below)):
        cell[y] = list(range(i * k, (i + 1) * k))
    rows = []
    for g in below:
        gx = table[g]
        walk: list[dict[int, int]] = [{}] * m  # [g|x] over the cells [y|s]
        for x in below:
            h, j = tree[x]
            walk[x] = _add_terms(dict(walk[h]), ((cell[gx[h]][j], 1), (cell[h][j], -1)))
        for h, j, x in non_tree:  # d3[g|h|s] = [h|s] - [gh|s] + [g|hs] - [g|h]
            vec = _add_terms(dict(walk[x]), ((c, -v) for c, v in walk[h].items()))
            vec = _add_terms(vec, ((cell[h][j], 1), (cell[gx[h]][j], -1)))
            if vec:
                rows.append(vec)
    d3_lattice = LatticeBasis((m - 1) * k)
    for vec in sorted(rows, key=len):
        d3_lattice.add(vec)
    torsion, coker_free = d3_lattice.quotient_invariants()
    # rank H2 = dim ker d2 - rank d3 = coker_free - rank d2, and
    # rank d2 = (m - 1) - (the H1 free rank)
    h2_free = coker_free - (m - 1 - h1_free)
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
    """M(G) from the Smith form of the tails matrix: the torsion of Z^ntails
    modulo the tail relations, whose free rank must equal the generator count."""
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
    if method != "tails":
        _check_oracle_cap(pres.order, oracle_cap)  # before building |G|² table entries
    if method == "bar":
        return bar_homology(multiplication_table(group_of(pres)), 2, cap=oracle_cap)
    rows, ntails = tails_matrix(pres, tail_perm)
    tails = _hopf_multiplier(pres, ntails, smith_form(rows, ntails))
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
    Z(H) ∩ γ₂(H), built by rewriting relation tails in the Smith coordinates
    of the tails matrix.  With M(G) trivial every tail vanishes, the cover's
    relation words are G's, and H is ``group_of(pres)``."""
    rows, r = tails_matrix(pres, tail_perm)
    n = pres.ngens
    result = smith_form(rows, r, images=True)
    multiplier = _hopf_multiplier(pres, r, result)
    col_of_old = _tail_columns(r, tail_perm)

    # Keep one central generator per invariant d > 1, refined into a chain of
    # prime-order generators h_1, ..., h_k with h_l^p = h_{l+1}, h_k^p = 1.
    chains = []  # (Smith coordinate j, start index among new gens, chain length, p, d)
    new_orders: list[int] = []
    for j, d in enumerate(result.diagonal):
        if d > 1:
            p, k = _prime_power(d)
            chains.append((j, n + len(new_orders), k, p, d))
            new_orders.extend([p] * k)

    def tail_word(t: int) -> Word:
        """Normal word (over the new generators) of the old tail t: with
        image_t its class in the Smith coordinates,
        tail_t = prod_j f_j^{image_t[j]}."""
        image = result.images[col_of_old[t]]
        out = []
        for j, start, k, p, d in chains:
            c = image.get(j, 0) % d
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
    # the stem property kernel <= Z(H) ∩ γ₂(H).  γ₂(H) maps onto γ₂(G) with
    # kernel γ₂(H) ∩ M, so M <= γ₂(H) exactly when |γ₂(H)| = |γ₂(G)|·|M|.
    # With no chains the relation words are G's, whose consistency
    # ``tails_matrix`` required, and the kernel checks are vacuous.
    cover_group = PcGroup(cover_pres) if chains else group_of(pres)
    expected_order = pres.order * multiplier.order
    if cover_pres.order != expected_order:
        raise MultiplierError(
            f"{pres.name}: cover order {cover_pres.order} != {expected_order}"
        )
    kernel_gens = tuple(cover_group.generator(i) for i in range(n, cover_pres.ngens))
    for h in kernel_gens:
        for i in range(n):
            if cover_group.commutator(h, cover_group.generator(i)) != cover_group.identity:
                raise MultiplierError(f"{pres.name}: cover kernel is not central")
    if cover_group.gamma2.order != group_of(pres).gamma2.order * multiplier.order:
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
