import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab import identities
from schurlab.identities import (
    LEMMA_IDS,
    IdentityError,
    _check_l41,
    _project_onto_er,
    alpha,
    collection_exponents_class5,
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
    # the all-a symbol of weight p+1 = 4 goes to every symbol: a -> {a, b} in
    # each of its two slots
    assert substitute_ab([1, 0, 0, 0], 3) == [1, 1, 1, 1]


def flip_enumeration(coeffs):
    """substitute_ab by adding each mask's coefficient to every superset mask:
    every subset of a symbol's a-slots turned to b."""
    out = [0] * len(coeffs)
    for mask, c in enumerate(coeffs):
        for sup in range(len(coeffs)):
            if sup & mask == mask:
                out[sup] += c
    return out


@st.composite
def coefficient_lists(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    return p, draw(st.lists(st.integers(-5, 5), min_size=2 ** (p - 1), max_size=2 ** (p - 1)))


@settings(max_examples=80, deadline=None)
@given(coefficient_lists())
def test_substitute_ab_matches_flip_enumeration(case):
    p, coeffs = case
    before = list(coeffs)
    assert substitute_ab(coeffs, p) == flip_enumeration(coeffs)
    assert coeffs == before


def test_symbol_calculus_guards():
    for coeffs in ([], [1, 0, 0], [0] * 8):
        with pytest.raises(IdentityError, match="needs 2"):
            substitute_ab(coeffs, 3)
    with pytest.raises(IdentityError, match="not uniform on S_1"):
        _project_onto_er([0, 1, 2, 3], 3)
    # non-uniform on S_2 and a nonzero E_0 entry: the uniformity guard comes first
    with pytest.raises(IdentityError, match="not uniform on S_2"):
        _project_onto_er([5, 1, 1, 2, 1, 1, 1, 1], 4)
    with pytest.raises(IdentityError, match="unexpected E_0 component"):
        _project_onto_er([5, 1, 1, 1], 3)
    for p in (1, 2, 4, 9):
        with pytest.raises(IdentityError, match="odd prime"):
            er_chain(p)


def test_collection_exponents_class5_known():
    exps = {}
    for name in ("[[b,a],a,b,a]",):
        from schurlab.freenil import fit_binomial

        poly = fit_binomial(lambda n, nm=name: collection_exponents_class5(n)[nm], 5)
        exps[name] = poly.as_dict()
    assert exps["[[b,a],a,b,a]"] == {3: 6, 4: 18, 5: 12}


def test_l41_layers_build_each_commutator_once(commutators_built):
    identities._l41_layers.cache_clear()
    layers = identities._l41_layers()
    assert [len(factors) for _, factors in layers] == [2, 1, 2, 3, 6]
    assert len(commutators_built) == 12  # one per factor of weight >= 2


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


def test_l41_counterexample_is_a_label(monkeypatch):
    wrong = identities.L41_I_RHS.replace("[b,a]^C(n,2)", "[b,a]^n")
    monkeypatch.setattr(identities, "L41_I_RHS", wrong)
    report = verify_collection_lemma("L4.1i")
    assert not report.passed
    assert report.counterexample == "series differ at n=1"


def test_l41iii_exact_past_float_precision():
    # coefficients of [b, a^n] pass 2^53 near n = 874
    assert _check_l41("iii", range(870, 880)) == []
