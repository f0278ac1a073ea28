"""Exponent-bound formulas and the two comparison tables.

Every bound is an integer computed by exact integer comparisons (powering and
cross-multiplication); no logarithm is ever evaluated in floating point.  The
tables compare, for a p-group of class c and exponent p^n, the exponents m for
which e(M(G)) divides e(G)^m (Table I) respectively p^m (Table II) under the
various published bounds.
"""
from __future__ import annotations


class BoundsError(ValueError):
    pass


def ceil_ratio(num: int, den: int) -> int:
    if den <= 0:
        raise BoundsError(f"denominator must be positive, got {den}")
    return -(-num // den)


def floor_log(base: int, x: int) -> int:
    """Largest k >= 0 with base**k <= x."""
    if base < 2 or x < 1:
        raise BoundsError(f"floor_log needs base >= 2 and x >= 1, got {base}, {x}")
    k = 0
    power = base
    while power <= x:
        k += 1
        power *= base
    return k


def ceil_log_ratio(base: int, num: int, den: int) -> int:
    """Smallest k >= 0 with base**k >= num/den, i.e. base**k * den >= num."""
    if base < 2 or num < 1 or den < 1:
        raise BoundsError(
            f"ceil_log_ratio needs base >= 2 and positive ratio, got {base}, {num}/{den}"
        )
    k = 0
    power = den
    while power < num:
        k += 1
        power *= base
    return k


def ellis_bound(c: int) -> int:
    """e(M) | e(G)^ceil(c/2)."""
    return ceil_ratio(c, 2)


def moravec_bound(c: int) -> int:
    """e(M) | e(G)^(2 floor(log2 c))."""
    return 2 * floor_log(2, c)


def thm61_bound(c: int) -> int:
    """e(G^G) | e(G)^ceil(log3((c+1)/2)) for odd-exponent groups of class c."""
    if c <= 1:
        raise BoundsError("class must exceed 1")
    return ceil_log_ratio(3, c + 1, 2)


def sambonet_bound(c: int, p: int) -> int:
    """e(M) | p^(n(floor(log_{p-1} c)+1)) for exponent p^n; returns the n=1 factor."""
    if p < 3:
        raise BoundsError("bound requires an odd prime")
    return floor_log(p - 1, c) + 1


def thm65_bound(c: int, p: int) -> int:
    """e(G^G) | e(G)^(1+ceil(log_{p-1}((c+1)/(p+1)))) for class c >= p."""
    if p < 3:
        raise BoundsError("bound requires an odd prime")
    if c < p:
        raise BoundsError(f"bound requires class >= p, got c={c}, p={p}")
    return 1 + ceil_log_ratio(p - 1, c + 1, p + 1)


def thm73_bound(d: int, exponent_odd: bool) -> tuple[int, int]:
    """e(M) | 2^a e(G)^d for derived length d; returns (a, d), a = 0 for odd e(G)."""
    if d < 1:
        raise BoundsError("derived length must be positive")
    return (0 if exponent_odd else d - 1, d)


TABLE_I_CLASSES = (3, 4, 5, 6, 17, 53, 161)

# (c, p, n) rows of the second table.  The first comparison column depends on
# a constant k defined externally, so those entries are echoed verbatim from
# the published table rather than computed.
TABLE_II_ROWS = (
    (5, 3, 1),
    (5, 3, 2),
    (7, 7, 1),
    (15, 13, 2),
    (24, 5, 1),
    (168, 13, 1),
)

TABLE_II_MORAVEC_PRINTED = {
    (5, 3, 1): 2,
    (5, 3, 2): 8,
    (7, 7, 1): 2,
    (15, 13, 2): 9,
    (24, 5, 1): 4,
    (168, 13, 1): 14,
}

# Printed final-column exponents that disagree with the stated formula.
TABLE_II_PRINTED_OVERRIDES = {
    (24, 5, 1): 2,
    (168, 13, 1): 2,
}


def table_i_rows() -> list[tuple[int, int, int, int]]:
    return [(c, ellis_bound(c), moravec_bound(c), thm61_bound(c)) for c in TABLE_I_CLASSES]


def table_ii_rows() -> list[dict]:
    rows = []
    for c, p, n in TABLE_II_ROWS:
        formula = n * thm65_bound(c, p)
        printed = TABLE_II_PRINTED_OVERRIDES.get((c, p, n))
        rows.append(
            {
                "c": c,
                "p": p,
                "n": n,
                "moravec_printed": TABLE_II_MORAVEC_PRINTED[(c, p, n)],
                "sambonet": n * sambonet_bound(c, p),
                "thm65_formula": formula,
                "thm65_printed": formula if printed is None else n * printed,
                "discrepancy": printed is not None and n * printed != formula,
            }
        )
    return rows


def emit_tables() -> str:
    lines = ["Table I: exponents m with e(M) | e(G)^m", ""]
    lines.append(f"{'c':>5} {'ceil(c/2)':>10} {'2 floor(log2 c)':>16} {'ceil(log3((c+1)/2))':>20}")
    for c, e, m, t in table_i_rows():
        lines.append(f"{c:>5} {e:>10} {m:>16} {t:>20}")
    lines.append("")
    lines.append("Table II: exponents m with e(M) | p^m (class c, exponent p^n)")
    lines.append("")
    lines.append(
        f"{'c':>5} {'p':>3} {'n':>3} {'echoed':>8} {'n(flr(log_(p-1)c)+1)':>21} "
        f"{'n(1+ceil(log_(p-1)(c+1)/(p+1)))':>32}"
    )
    for row in table_ii_rows():
        base = (
            f"{row['c']:>5} {row['p']:>3} {row['n']:>3} "
            f"{row['p']}^{row['moravec_printed']:<5} "
            f"{str(row['p']) + '^' + str(row['sambonet']):>21} "
        )
        if row["discrepancy"]:
            base += (
                f"{row['p']}^{row['thm65_formula']} "
                f"[DISCREPANCY: published table prints {row['p']}^{row['thm65_printed']}]"
            )
        else:
            base += f"{str(row['p']) + '^' + str(row['thm65_formula']):>32}"
        lines.append(base)
    return "\n".join(lines)
