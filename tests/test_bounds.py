import pytest

from schurlab.bounds import (
    BoundsError,
    ceil_log_ratio,
    ellis_bound,
    emit_tables,
    floor_log,
    moravec_bound,
    sambonet_bound,
    table_i_rows,
    table_ii_rows,
    thm61_bound,
    thm65_bound,
    thm73_bound,
)


def test_exact_log_helpers():
    assert floor_log(2, 1) == 0
    assert floor_log(2, 1023) == 9
    assert floor_log(2, 1024) == 10
    assert ceil_log_ratio(3, 9, 2) == 2  # 3^2 >= 4.5
    assert ceil_log_ratio(3, 1, 2) == 0
    with pytest.raises(BoundsError):
        floor_log(1, 5)


def test_table_i_exact():
    expected = {
        3: (2, 2, 1),
        4: (2, 4, 1),
        5: (3, 4, 1),
        6: (3, 4, 2),
        17: (9, 8, 2),
        53: (27, 10, 3),
        161: (81, 14, 4),
    }
    for c, ellis, moravec, thm61 in table_i_rows():
        assert (ellis, moravec, thm61) == expected[c]


def test_table_ii_exact_and_discrepancies():
    rows = {(r["c"], r["p"], r["n"]): r for r in table_ii_rows()}
    assert rows[(5, 3, 1)]["sambonet"] == 3
    assert rows[(5, 3, 1)]["thm65_formula"] == 2
    assert rows[(5, 3, 2)]["sambonet"] == 6
    assert rows[(5, 3, 2)]["thm65_formula"] == 4
    assert rows[(7, 7, 1)]["thm65_formula"] == 1
    assert rows[(15, 13, 2)]["sambonet"] == 4
    assert rows[(15, 13, 2)]["thm65_formula"] == 4
    for key in ((24, 5, 1), (168, 13, 1)):
        row = rows[key]
        assert row["discrepancy"]
        assert row["thm65_formula"] == 3
        assert row["thm65_printed"] == 2
    for key in ((5, 3, 1), (5, 3, 2), (7, 7, 1), (15, 13, 2)):
        assert not rows[key]["discrepancy"]


def test_moravec_column_is_echoed_not_computed():
    rows = {(r["c"], r["p"], r["n"]): r for r in table_ii_rows()}
    # for (5,3,1) the published entry (2) differs from 2n*floor(log2 c) = 4
    assert rows[(5, 3, 1)]["moravec_printed"] == 2
    assert moravec_bound(5) == 4


def test_bound_domains():
    with pytest.raises(BoundsError):
        thm61_bound(1)
    with pytest.raises(BoundsError):
        thm65_bound(2, 3)  # requires c >= p
    with pytest.raises(BoundsError):
        sambonet_bound(5, 2)  # needs odd prime
    assert thm73_bound(2, exponent_odd=True) == (0, 2)
    assert thm73_bound(3, exponent_odd=True) == (0, 3)
    assert thm73_bound(3, exponent_odd=False) == (2, 3)


def test_emit_tables_mentions_discrepancies():
    text = emit_tables()
    assert "Table I" in text and "Table II" in text
    assert text.count("DISCREPANCY") == 2
    assert "5^2" in text and "13^2" in text
