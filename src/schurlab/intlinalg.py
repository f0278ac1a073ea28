"""Exact integer linear algebra on one matrix format: a list of sparse rows.

A row (or vector) is a dict {column: nonzero value}; a matrix is a list of rows
plus a column count.  ``LatticeBasis`` keeps a triangular basis of a sublattice
of Z^dim.  One reduction loop, ``LatticeBasis.reduce``, serves insertion,
membership and ``IntegerSolver``, which reads integer solutions off it.  The
quotient invariants peel off the unit pivots in one pass and hand the small
remainder to ``snf``, a dense Smith normal form.

Everything here is arbitrary-precision; no floating point anywhere.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and g == x*a + y*b."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


@dataclass(frozen=True)
class SNFResult:
    """Diagonal of the Smith normal form, with the optional unimodular column
    transform Q: P * A * Q equals diag(diagonal) (padded with zeros) for some
    unimodular P, which is not kept."""
    diagonal: tuple[int, ...]
    rank: int
    col_transform: Optional[list[list[int]]] = None


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def snf(
    rows: Sequence[dict[int, int]], ncols: int, want_transforms: bool = False
) -> SNFResult:
    """Smith normal form over Z of the matrix with the given sparse rows and
    ``ncols`` columns, with min-|pivot| selection; ``want_transforms`` also
    tracks the column transform, the only one a caller reads.

    Dense elimination; intended for the small matrices arising from relation
    tails and homology lattice bases (hundreds of rows at most).
    """
    m, n = len(rows), ncols
    D = [[row.get(j, 0) for j in range(n)] for row in rows]
    Q = _identity(n) if want_transforms else None

    def swap_cols(j1, j2):
        for row in D:
            row[j1], row[j2] = row[j2], row[j1]
        if Q is not None:
            for row in Q:
                row[j1], row[j2] = row[j2], row[j1]

    def add_row(src, dst, q):
        # row dst += q * row src
        Dsrc, Ddst = D[src], D[dst]
        for j in range(n):
            if Dsrc[j]:
                Ddst[j] += q * Dsrc[j]

    def add_col(src, dst, q):
        for row in D:
            if row[src]:
                row[dst] += q * row[src]
        if Q is not None:
            for row in Q:
                if row[src]:
                    row[dst] += q * row[src]

    t = 0
    size = min(m, n)
    while t < size:
        # locate minimal |value| pivot in the trailing submatrix
        pivot = None
        best = None
        for i in range(t, m):
            row = D[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
                    if best == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            D[pi], D[t] = D[t], D[pi]
        if pj != t:
            swap_cols(pj, t)
        if D[t][t] < 0:
            D[t] = [-v for v in D[t]]

        dirty = False
        d = D[t][t]
        for i in range(t + 1, m):
            v = D[i][t]
            if v:
                q = v // d
                if q:
                    add_row(t, i, -q)
                if D[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            v = D[t][j]
            if v:
                q = v // d
                if q:
                    add_col(t, j, -q)
                if D[t][j]:
                    dirty = True
        if dirty:
            continue  # pivot shrank somewhere; pick again

        # enforce divisibility of the trailing block by the pivot
        bad = None
        for i in range(t + 1, m):
            row = D[i]
            for j in range(t + 1, n):
                if row[j] % d:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1

    diagonal = tuple(D[i][i] for i in range(size) if D[i][i])
    return SNFResult(diagonal=diagonal, rank=len(diagonal), col_transform=Q)


class LatticeBasis:
    """Triangular (pivot-indexed) basis of a sublattice of Z^dim, built by
    inserting sparse generator vectors one at a time.

    Vectors are dicts {coordinate: value}. After all insertions, ``pivots``
    maps each pivot coordinate to a basis vector whose first nonzero entry
    (smallest coordinate) is that pivot, with positive pivot value.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @staticmethod
    def _axpy(vec: dict[int, int], q: int, other: dict[int, int]) -> None:
        # vec += q * other, in place
        if not q:
            return
        for j, v in other.items():
            new = vec.get(j, 0) + q * v
            if new:
                vec[j] = new
            else:
                vec.pop(j, None)

    def add(self, vec: dict[int, int]) -> None:
        """Insert vec into the lattice.  Each vector on the work list is
        reduced by ``reduce``; a remainder whose leading coordinate has no
        pivot becomes one, and one whose leading entry the pivot does not
        divide is merged with the pivot vector by ``xgcd``, sending the
        displaced vector and the remainder back to the list."""
        pivots = self.pivots
        work = [vec]
        while work:
            v = self.reduce(work.pop())
            if not v:
                continue
            i = min(v)
            b = pivots.get(i)
            if b is None:
                pivots[i] = v if v[i] > 0 else {j: -x for j, x in v.items()}
                continue
            a, c = b[i], v[i]
            g, x, y = xgcd(a, c)
            new: dict[int, int] = {}
            self._axpy(new, x, b)
            self._axpy(new, y, v)
            pivots[i] = new  # leading entry g > 0
            self._axpy(b, -(a // g), new)
            self._axpy(v, -(c // g), new)
            work += (b, v)  # v, the remainder, is reduced first

    def reduce(self, vec: dict[int, int]) -> dict[int, int]:
        """Remainder of vec after subtracting basis vectors (no insertions)."""
        v = dict(vec)
        while v:
            i = min(v)
            b = self.pivots.get(i)
            if b is None:
                return v
            c = v[i]
            a = b[i]
            if c % a:
                return v
            self._axpy(v, -(c // a), b)
        return v

    def quotient_invariants(self) -> tuple[tuple[int, ...], int]:
        """Invariants of Z^dim modulo this lattice: (torsion chain, free rank)."""
        free_rank = self.dim - self.rank
        # A coordinate whose pivot value is 1 contributes a trivial invariant
        # factor: clear it from the other vectors and drop its vector.  Only
        # vectors with lower pivots carry it, and clearing never changes a
        # pivot value, so one walk from the highest pivot down, clearing each
        # vector with the unit vectors already cleared above it, peels all.
        units: dict[int, dict[int, int]] = {}
        vectors = []
        for i in sorted(self.pivots, reverse=True):
            v = dict(self.pivots[i])
            for j in [j for j in v if j in units]:
                self._axpy(v, -v[j], units[j])
            if v[i] == 1:
                units[i] = v
            else:
                vectors.append(v)
        if not vectors:
            return (), free_rank
        coords = sorted(set().union(*vectors))
        col_of = {c: j for j, c in enumerate(coords)}
        rows = [{col_of[c]: val for c, val in v.items()} for v in vectors]
        result = snf(rows, len(coords))
        torsion = tuple(d for d in result.diagonal if d > 1)
        return torsion, free_rank


def quotient_invariants(dim: int, generators: Iterable[dict[int, int]]) -> tuple[tuple[int, ...], int]:
    """Invariants of Z^dim modulo the lattice spanned by the generators."""
    basis = LatticeBasis(dim)
    for g in generators:
        basis.add(g)
    return basis.quotient_invariants()


class IntegerSolver:
    """Solve A x = b exactly over Z for a fixed set of integer columns.

    Columns are sparse dicts over row coordinates < dim.  Build once, solve
    many targets.  Raises ValueError when no integer solution exists.
    """

    def __init__(self, dim: int, columns: list[dict[int, int]]):
        self.dim = dim
        self.ncols = len(columns)
        self.basis = LatticeBasis(dim + self.ncols)
        for k, col in enumerate(columns):
            aug = dict(col)
            aug[dim + k] = 1
            self.basis.add(aug)
        # Column k is tracked by bookkeeping coordinate dim + k.  Pivots there
        # come from dependent columns; without them, reduce stops at the first
        # bookkeeping coordinate and leaves the solution's coefficients.
        self.basis.pivots = {i: b for i, b in self.basis.pivots.items() if i < dim}

    def solve(self, target: dict[int, int]) -> list[int]:
        v = self.basis.reduce(target)
        i = min(v, default=self.dim)
        if i < self.dim:
            why = (f"non-divisible pivot at {i}" if i in self.basis.pivots
                   else f"unreachable coordinate {i}")
            raise ValueError(f"no integer solution ({why})")
        coeffs = [0] * self.ncols
        for j, val in v.items():
            coeffs[j - self.dim] = -val
        return coeffs
