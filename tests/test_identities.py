import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab.identities import (
    LEMMA_IDS,
    FormalSum,
    IdentityError,
    _check_l41,
    alpha,
    collection_exponents_class5,
    e_r,
    er_chain,
    substitute_ab,
    verify_collection_lemma,
)


def test_alpha_example_values():
    assert alpha(2, 2) == 2
    assert alpha(2, 3) == 6
    assert alpha(2, 4) == 14
    assert alpha(3, 3) == 6
    assert alpha(3, 4) == 36
    assert alpha(4, 4) == 24


def test_alpha_edge_cases():
    with pytest.raises(IdentityError):
        alpha(5, 4)  # needs m <= n
    with pytest.raises(IdentityError):
        alpha(1, 3)  # needs m >= 2


def test_alpha_recurrence():
    import math

    for n in range(3, 13):
        for m in range(3, n + 1):
            rhs = sum(
                math.comb(n, k) * alpha(m - 1, k) for k in range(m - 1, n)
            )
            assert alpha(m, n) == rhs


def test_er_chain_p5():
    chain = er_chain(5)
    assert chain == [(1, 1, 1, 1), (0, 2, 6, 14), (0, 0, 6, 36), (0, 0, 0, 24)]


def test_er_chain_final_factorial():
    import math

    for p in (3, 5, 7, 11):
        chain = er_chain(p)
        final = chain[-1]
        assert final[:-1] == (0,) * (p - 2)
        assert final[-1] == math.factorial(p - 1)


def test_er_chain_step_vectors_are_alpha():
    for p in (3, 5, 7):
        chain = er_chain(p)
        for m, vec in enumerate(chain[1:], start=2):
            for k, value in enumerate(vec, start=1):
                expected = alpha(m, k) if k >= m else 0
                assert value == expected


def test_substitute_ab_on_e1():
    # a -> {a, b} in each slot of the weight-(p-1) word
    s = e_r(3, 0)  # the two-letter all-a word, r = 0 b's
    expanded = substitute_ab(s, 3)
    assert len(expanded.terms) == 4  # (a|b)^2 choices
    assert all(c == 1 for _, c in expanded.terms)


def flip_enumeration(s, p):
    """substitute_ab by listing, for every symbol, each subset of its a-slots
    turned to b."""
    out = {}
    for t, c in s.terms:
        a_slots = [i for i, x in enumerate(t) if x == "a"]
        for k in range(len(a_slots) + 1):
            for flip in itertools.combinations(a_slots, k):
                d = list(t)
                for i in flip:
                    d[i] = "b"
                out[tuple(d)] = out.get(tuple(d), 0) + c
    return FormalSum.from_dict(p - 1, out)


@st.composite
def formal_sums(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    symbols = st.tuples(*[st.sampled_from("ab")] * (p - 1))
    return p, FormalSum.from_dict(
        p - 1, draw(st.dictionaries(symbols, st.integers(-5, 5), max_size=20))
    )


@settings(max_examples=80, deadline=None)
@given(formal_sums())
def test_substitute_ab_matches_flip_enumeration(case):
    p, s = case
    assert substitute_ab(s, p) == flip_enumeration(s, p)


def test_formal_sum_rejects_bad_symbols():
    for bad in ({("a", "c"): 1}, {("a",): 1}, {("a", "b"): 1, ("a", "b", "a"): 2}):
        with pytest.raises(IdentityError, match="bad symbol"):
            FormalSum.from_dict(2, bad)


def test_formal_sum_arithmetic():
    x = e_r(3, 1)
    assert x + x == x.scale(2)
    assert (x - x).is_zero()
    y = FormalSum.from_dict(2, {("a", "b"): 1, ("b", "a"): -1})
    assert (x + y).as_dict() == {("a", "b"): 2}


def test_collection_exponents_class5_known():
    exps = {}
    for name in ("[[b,a],a,b,a]",):
        from schurlab.freenil import fit_binomial

        poly = fit_binomial(lambda n, nm=name: collection_exponents_class5(n)[nm], 5)
        exps[name] = poly.as_dict()
    assert exps["[[b,a],a,b,a]"] == {3: 6, 4: 18, 5: 12}


def test_all_collection_lemmas_pass(check_lemma):
    for lemma_id in LEMMA_IDS:
        report = check_lemma(lemma_id)
        assert report.passed, f"{lemma_id}: {report.counterexample}"


def test_unknown_lemma_id():
    with pytest.raises(IdentityError):
        verify_collection_lemma("L9.99")


@pytest.mark.parametrize("lemma_id", ["L4.1i", "L4.1ii", "L4.1iii"])
def test_collection_lemma_at_large_n(lemma_id):
    report = verify_collection_lemma(lemma_id, n_max=60)
    assert report.passed, report.counterexample


def test_l41iii_exact_past_float_precision():
    # coefficients of [b, a^n] pass 2^53 near n = 874
    assert _check_l41("iii", range(870, 880)) == []
