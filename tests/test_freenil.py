import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab.commexpr import parse_expr
from schurlab.freenil import (
    FreenilError,
    HallBasis,
    TruncatedSeries,
    default_binding,
    expansion_exponents,
    fit_binomial,
    group_commutator,
    normal_form,
    _unpack,
    verify_identity,
)


def test_series_group_laws():
    a = TruncatedSeries.generator(2, 4, 0)
    b = TruncatedSeries.generator(2, 4, 1)
    one = TruncatedSeries.one(2, 4)
    assert a * a.inverse() == one
    assert a.power(3) == a * a * a
    assert a.power(-2) == a.inverse() * a.inverse()
    assert (a * b).inverse() == b.inverse() * a.inverse()


def test_commutator_convention_left_conjugation():
    # [g,h] = g h g^{-1} h^{-1}
    a = TruncatedSeries.generator(2, 4, 0)
    b = TruncatedSeries.generator(2, 4, 1)
    assert group_commutator(a, b) == a * b * a.inverse() * b.inverse()


def test_hall_basis_counts():
    basis = HallBasis(2, 5)
    by_weight = {}
    for bc in basis.commutators:
        by_weight[bc.weight] = by_weight.get(bc.weight, 0) + 1
    assert by_weight == {1: 2, 2: 1, 3: 2, 4: 3, 5: 6}


def test_normal_form_roundtrip():
    basis = HallBasis(2, 4)
    exps = [2, -1, 3, 0, -2, 1, 4, -3]  # one exponent per basic commutator
    s = TruncatedSeries.one(basis.k, basis.c)
    for bc, e in zip(basis.commutators, exps):
        s = s * basis.series(bc).power(e)
    assert normal_form(s, basis) == exps


def test_expansion_exponents_class2():
    # (ab)^n = [b,a]^C(n,2) a^n b^n  (right-normed layout, class 2)
    k, c = 2, 2
    a = TruncatedSeries.generator(k, c, 0)
    b = TruncatedSeries.generator(k, c, 1)
    layers = [(1, [a, b]), (2, [group_commutator(b, a)])]
    for n in range(1, 8):
        exps = expansion_exponents((a * b).power(n), layers, side="right")
        assert exps[0] == [n, n]
        fit = fit_binomial(lambda m: expansion_exponents(
            (a * b).power(m), layers, side="right")[1][0], 2)
        assert fit.as_dict() == {2: 1}


def test_fit_binomial_square():
    poly = fit_binomial(lambda n: n * n, 2)
    assert poly.as_dict() == {1: 1, 2: 2}
    with pytest.raises(FreenilError):
        fit_binomial(lambda n: 2**n, 3)  # not a degree-3 binomial polynomial


def test_verify_identity_class3():
    # In class 3: [b, a^n] = [a,b,a]^C(n,2) [b,a]^n
    lhs = parse_expr("[b, a^n]")
    rhs = parse_expr("[a,b,a]^C(n,2) [b,a]^n")
    report = verify_identity(lhs, rhs, k=2, c=3, n_range=range(1, 15))
    assert report.passed
    bad = parse_expr("[a,b,a]^C(n,2) [b,a]^(n+1)")
    report = verify_identity(lhs, bad, k=2, c=3, n_range=range(1, 15))
    assert not report.passed


def test_default_binding_letters():
    binding = default_binding(3, 2)
    assert set(binding) == {"a", "b", "c"}


def test_inverse_and_commutator_coefficients_are_ints():
    a = TruncatedSeries.generator(2, 6, 0)
    b = TruncatedSeries.generator(2, 6, 1)
    for s in (a.inverse(), group_commutator(a, b)):
        assert all(type(x) is int for part in s.parts for x in part.values())


@st.composite
def series(draw, constant=st.just(1), k=None, c=None):
    """A random series on k in {2, 3} letters, truncated at c in 1..6, with a
    few terms in each degree."""
    k = k or draw(st.sampled_from((2, 3)))
    c = c or draw(st.integers(1, 6))
    a = draw(constant)
    parts = [{0: a} if a else {}]
    for d in range(1, c + 1):
        terms = draw(st.dictionaries(
            st.integers(0, k**d - 1), st.integers(-3, 3), max_size=3))
        parts.append({v: cf for v, cf in terms.items() if cf})
    return TruncatedSeries(k, c, parts)


def repeated_power(s, n):
    """s^n by |n| products, with s^{-1} = sum_t (1 - s)^t for constant 1."""
    one = TruncatedSeries.one(s.k, s.c)
    base = s
    if n < 0:
        neg_u = one - s
        base, term = one, one
        for _ in range(s.c):
            term = term * neg_u
            base = base + term
    out = one
    for _ in range(abs(n)):
        out = out * base
    return out


@settings(max_examples=80, deadline=None)
@given(series(), st.integers(-8, 40))
def test_power_and_inverse_match_repeated_products(s, n):
    one = TruncatedSeries.one(s.k, s.c)
    assert s.power(n) == repeated_power(s, n)
    assert s.inverse() == repeated_power(s, -1)
    assert s * s.inverse() == one
    assert s.inverse() * s == one


@settings(max_examples=60, deadline=None)
@given(series(constant=st.integers(-3, 3).filter(lambda a: a != 1)), st.integers(-8, 40))
def test_power_with_other_constant_terms(s, n):
    if n < 0:
        with pytest.raises(FreenilError):
            s.power(n)
        with pytest.raises(FreenilError):
            s.inverse()
    else:
        assert s.power(n) == repeated_power(s, n)


@settings(max_examples=40, deadline=None)
@given(series(), st.integers(-8, 40), st.data())
def test_new_series_do_not_share_cached_powers(s, n, data):
    delta = data.draw(series(constant=st.just(0), k=s.k, c=s.c))
    s.power(2)  # fills the cached powers of s - 1
    for t in (s.copy(), s + delta, s - delta, -(-s)):
        assert t._upowers is None
        assert t.power(n) == repeated_power(t, n)
        assert not set(map(id, t._u_powers())) & set(map(id, s._u_powers()))


def schoolbook_product(s, t):
    """s t term by term on the unpacked words, the reference for ``*``."""
    k, c = s.k, s.c
    out = {}
    for d1, p1 in enumerate(s.parts):
        for d2, p2 in enumerate(t.parts[: c - d1 + 1]):
            for v1, c1 in p1.items():
                for v2, c2 in p2.items():
                    word = (*_unpack(v1, d1, k), *_unpack(v2, d2, k))
                    out[word] = out.get(word, 0) + c1 * c2
    parts = [{} for _ in range(c + 1)]
    for word, cf in out.items():
        if cf:
            parts[len(word)][sum(x * k**i for i, x in enumerate(reversed(word)))] = cf
    return TruncatedSeries(k, c, parts)


@settings(max_examples=80, deadline=None)
@given(series(constant=st.integers(-3, 3)), st.data())
def test_product_matches_schoolbook_and_one_is_neutral(s, data):
    t = data.draw(series(constant=st.integers(-3, 3), k=s.k, c=s.c))
    one = TruncatedSeries.one(s.k, s.c)
    assert s * t == schoolbook_product(s, t)
    assert s * one == s and one * s == s
    assert (s * t).is_one() == (schoolbook_product(s, t) == one)


@settings(max_examples=80, deadline=None)
@given(series(), st.data())
def test_commutator_by_right_division_matches_four_products(u, data):
    v = data.draw(series(k=u.k, c=u.c))
    comm = group_commutator(u, v)
    assert comm == u * v * u.inverse() * v.inverse()
    assert all(type(x) is int for part in comm.parts for x in part.values())


@settings(max_examples=20, deadline=None)
@given(series(constant=st.integers(-3, 3).filter(lambda a: a != 1)), st.data())
def test_commutator_rejects_other_constant_terms(s, data):
    t = data.draw(series(k=s.k, c=s.c))
    for u, v in ((s, t), (t, s)):
        with pytest.raises(FreenilError, match="constant term 1"):
            group_commutator(u, v)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(("left", "right")), st.data())
def test_expansion_exponents_round_trip_at_class_5(side, data):
    # several factors per layer: 2, 1, 2, 3 and 6 at weights 1..5
    basis = HallBasis(2, 5)
    layers = [(w, [basis.series(bc) for bc in basis.by_weight[w]]) for w in range(1, 6)]
    exps = [[data.draw(st.integers(-6, 6)) for _ in factors] for _, factors in layers]
    s = TruncatedSeries.one(2, 5)
    blocks = []
    for (_, factors), layer in zip(layers, exps):
        block = TruncatedSeries.one(2, 5)
        for f, e in zip(factors, layer):
            block = block * f.power(e)
        blocks.append(block)
    for block in blocks if side == "left" else reversed(blocks):
        s = s * block
    assert expansion_exponents(s, layers, side=side) == exps
