import pytest

from schurlab.commexpr import (
    Bracket,
    ExpPoly,
    ExprError,
    Letter,
    Power,
    Product,
    parse_expr,
)
from schurlab.freenil import TruncatedSeries, group_commutator
from schurlab.identities import L41_I_RHS, L41_II_RHS, L41_III_RHS


def bind(k=2, c=4):
    return {
        "a": TruncatedSeries.generator(k, c, 0),
        "b": TruncatedSeries.generator(k, c, 1),
    }


def test_parse_letter_and_product():
    expr = parse_expr("a b a")
    assert isinstance(expr, Product)
    assert [str(f) for f in expr.factors] == ["a", "b", "a"]


def test_bracket_right_normed():
    expr = parse_expr("[a,b,a]")
    binding = bind()
    a, b = binding["a"], binding["b"]
    # [a,b,a] = [a,[b,a]]
    assert expr.evaluate(binding) == group_commutator(a, group_commutator(b, a))


def test_repeat_shorthand():
    assert parse_expr("[_3 a, b]") == parse_expr("[a,a,a,b]")


def test_exponent_polynomials():
    expr = parse_expr("a^(6C(n,3)+18C(n,4)+12C(n,5))")
    assert isinstance(expr, Power)
    assert expr.exponent.evaluate(5) == 6 * 10 + 18 * 5 + 12 * 1
    assert parse_expr("a^n").exponent.evaluate(7) == 7
    assert parse_expr("a^(n-1)").exponent.evaluate(7) == 6
    assert parse_expr("a^3").exponent.evaluate(None) == 3


def test_formal_exponent_needs_n():
    with pytest.raises(ExprError):
        parse_expr("a^n").evaluate(bind(), n=None)


def test_evaluation_matches_manual():
    binding = bind()
    a, b = binding["a"], binding["b"]
    expr = parse_expr("[b,a]^2 a b")
    manual = group_commutator(b, a).power(2) * a * b
    assert expr.evaluate(binding) == manual


def test_parse_errors():
    for text in ("[a]", "a^", "(a b", "[a,b", "a %", "^2"):
        with pytest.raises(ExprError):
            parse_expr(text)


def test_exppoly_str_roundtrip():
    poly = ExpPoly(((0, -1), (1, 2), (3, 1)))
    assert str(poly) == "-1+2n+C(n,3)"


def test_expr_str_roundtrip():
    for text in ("(a b)^n", "(a^2)^3", "[[b,a],a,b,a]^(C(n,3)+2C(n,4)) a^n b^n"):
        expr = parse_expr(text)
        assert parse_expr(str(expr)) == expr


EXAMPLES = (
    "a b a",
    "[a,b,a]",
    "[_3 a, b]",
    "a^(6C(n,3)+18C(n,4)+12C(n,5))",
    "a^n",
    "a^(n-1)",
    "a^3",
    "[b,a]^2 a b",
    "(a b)^n",
    "(a^2)^3",
    "[[b,a],a,b,a]^(C(n,3)+2C(n,4)) a^n b^n",
    "[b, a^n]",
    "b a [b,a]^n a^2 [a,b]",
)


@pytest.mark.parametrize(
    "text, c",
    [(t, 4) for t in EXAMPLES]
    + [
        ("(a b)^n", 5),
        pytest.param(L41_I_RHS, 5, id="L4.1i-rhs"),
        pytest.param(L41_II_RHS, 6, id="L4.1ii-rhs"),
        ("[b, a^n]", 6),
        pytest.param(L41_III_RHS, 6, id="L4.1iii-rhs"),
    ],
)
def test_fold_keeps_every_value(text, c):
    """Memoised evaluation, which folds each n-free subtree into one memo
    entry, equals plain evaluation; one memo serves every n."""
    binding = bind(c=c)
    expr = parse_expr(text)
    memo = {}
    for n in range(26):
        assert expr.evaluate(binding, n, memo) == expr.evaluate(binding, n)


def test_brackets_nest_to_the_right():
    a, b = Letter("a"), Letter("b")
    ba = Bracket(b, a)
    assert parse_expr("[a,b,b,a]") == Bracket(a, Bracket(b, Bracket(b, a)))
    assert parse_expr("[[b,a],a,b,a]") == Bracket(ba, Bracket(a, ba))
    assert not ba.uses_n and parse_expr("[b, a^n]").uses_n


def test_memo_builds_each_commutator_once(commutators_built):
    binding, memo = bind(c=5), {}
    expr = parse_expr(L41_I_RHS)
    for n in range(1, 6):
        expr.evaluate(binding, n, memo)
    # [b,a], then the 5 of weight 3 and 4 and the 6 of weight 5, each once
    assert len(commutators_built) == 12
    assert sum(isinstance(key, Bracket) for key in memo) == 12


def test_folded_formal_exponent_still_needs_n():
    """A memo holds only n-free subtrees: a formal exponent still needs n,
    also after the memo was filled at some n."""
    binding = bind()
    for text in ("a^n", "(a b)^n", "[b, a^n]", "[b,a]^2 a^C(n,2) b"):
        expr, memo = parse_expr(text), {}
        expr.evaluate(binding, 3, memo)
        with pytest.raises(ExprError):
            expr.evaluate(binding, None, memo)
        with pytest.raises(ExprError):
            expr.evaluate(binding, None, {})
