import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab.multiplier import schur_cover
from schurlab.pcgroup import (
    DEFAULT_CAP,
    CatalogSyntaxError,
    Collector,
    EnumerationCapExceeded,
    InconsistentPresentation,
    PcError,
    PcGroup,
    check_consistency,
    group_of,
    make_presentation,
    parse_catalog,
    word_of,
)


def heisenberg():
    return make_presentation(
        "heis", [3, 3, 3], comm_words={(1, 0): ((2, 1),)}
    )


def dihedral8():
    return make_presentation(
        "d8", [2, 2, 2], power_words={1: ((2, 1),)}, comm_words={(1, 0): ((2, 1),)}
    )


def test_consistency_and_order(bundled):
    for entry in bundled.values():
        assert check_consistency(entry.presentation) == []
        group = group_of(entry.presentation)
        assert len(group.elements()) == entry.order


def test_inconsistent_presentation_rejected():
    bad = make_presentation("bad", [2, 2, 3], comm_words={(1, 0): ((2, 1),)}, prime=None)
    violations = check_consistency(bad)
    assert violations
    with pytest.raises(InconsistentPresentation):
        PcGroup(bad)


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(-5, 5)), max_size=8))
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent(letters):
    group = group_of(heisenberg())
    w = group.normalize(letters)
    assert group.normalize([(g, e) for g, e in enumerate(w)]) == w


def test_associativity_sampled(groups):
    rng = random.Random(0)
    for name in ("heisenberg_3", "dihedral_16", "wreath_c3_c3", "modular_81"):
        group = groups(name)
        elems = group.elements()
        triples = (
            [(u, v, w) for u in elems for v in elems for w in elems]
            if len(elems) <= 27
            else [
                (rng.choice(elems), rng.choice(elems), rng.choice(elems))
                for _ in range(10_000)
            ]
        )
        for u, v, w in triples:
            assert group.multiply(group.multiply(u, v), w) == group.multiply(
                u, group.multiply(v, w)
            )


def _random_element(group, rng):
    return tuple(rng.randrange(o) for o in group.pres.relative_orders)


def _inverse_word(u):
    return tuple((g, -e) for g, e in reversed(word_of(u)))


def _assert_arithmetic_matches_collection(group, rng, samples):
    """multiply, inverse and power agree with collecting the words directly."""
    collect = Collector(group.pres).collect
    for _ in range(samples):
        u, v = _random_element(group, rng), _random_element(group, rng)
        assert group.multiply(u, v) == collect(word_of(u) + word_of(v)), (u, v)
        assert group.inverse(u) == collect(_inverse_word(u)), u
        k = rng.randrange(-20, 21)
        letters = word_of(u) * k if k >= 0 else _inverse_word(u) * -k
        assert group.power(u, k) == collect(letters), (u, k)


def test_table_arithmetic_matches_collection(bundled):
    rng = random.Random(1)
    small = [e.presentation for e in bundled.values() if e.order <= 81]
    for pres in small + [bundled["modular_625"].presentation]:
        _assert_arithmetic_matches_collection(PcGroup(pres), rng, 100)
    # a group above the product memo's limit walks the columns every time
    cover = schur_cover(bundled["heisenberg_3_x_c3"].presentation).group
    assert cover.order == 6561 > PcGroup.MEMO_ORDER_LIMIT
    _assert_arithmetic_matches_collection(cover, rng, 300)


def test_index_tables_match_arithmetic(bundled):
    for entry in bundled.values():
        if entry.order > 81:
            continue
        group = PcGroup(entry.presentation)
        elems, p = group.elements(), entry.presentation.prime
        for x, u in enumerate(elems):
            assert elems[group.inverses[x]] == group.inverse(u), (entry.name, u)
            assert elems[group.pth(x)] == group.power(u, p), (entry.name, u)
            row = group.rows[x]
            assert [elems[y] for y in row] == [group.multiply(u, v) for v in elems], entry.name


def _squaring_order(group, u):
    """The least p^k with u^(p^k) = 1, each power by repeated squaring."""
    p = group.pres.relative_orders[0]
    q = 1
    while group.power(u, q) != group.identity:
        q *= p
    return q


def test_element_orders_walk_the_pth_map(bundled):
    cover = schur_cover(bundled["heisenberg_3_x_c3"].presentation).group
    for group in [PcGroup(e.presentation) for e in bundled.values()] + [cover]:
        orders = [group.element_order(u) for u in group.elements()]
        assert orders == [_squaring_order(group, u) for u in group.elements()], group.pres.name
        assert group.exponent() == max(orders)
        center = group.center()
        p = group.pres.relative_orders[0]
        modulo_center = []
        for u in group.elements():
            q = 1
            while group.power(u, q) not in center:
                q *= p
            modulo_center.append(q)
        assert group.exponent(modulo=center) == max(modulo_center), group.pres.name


def test_mixed_prime_orders_by_powering():
    # C6 = <g1, g2 | g1^2 = g2, g2^3 = 1>: no p-th-power map, orders by powers
    c6 = PcGroup(make_presentation("c6", [2, 3], power_words={0: ((1, 1),)}))
    assert [c6.element_order(u) for u in c6.elements()] == [1, 3, 3, 6, 2, 6]
    assert c6.exponent() == 6
    with pytest.raises(PcError, match="no p-th-power map"):
        c6.pth(1)


def test_elements_built_once_in_lexicographic_order(groups):
    group = groups("heisenberg_3")
    elems = group.elements()
    assert isinstance(elems, tuple) and elems is group.elements()
    assert list(elems) == sorted(elems)
    assert [group.position(w) for w in elems] == list(range(group.order))


def test_group_above_enumeration_cap_builds_no_tables():
    group = PcGroup(make_presentation("elementary_2_18", [2] * 18))
    assert group.order > DEFAULT_CAP
    rng = random.Random(2)
    tracemalloc.start()
    try:
        for _ in range(200):
            u, v = _random_element(group, rng), _random_element(group, rng)
            assert group.multiply(u, v) == tuple(a ^ b for a, b in zip(u, v))
            assert group.inverse(u) == u
            assert group.power(u, 3) == u
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # one column of 2^18 indices alone takes 2 MiB
    with pytest.raises(EnumerationCapExceeded):
        group.elements()


def test_heisenberg_structure(groups):
    group = groups("heisenberg_3")
    lcs = group.lower_central_series()
    gamma2 = lcs[1]
    assert gamma2.order == 3
    assert gamma2.elements == group.center().elements
    assert len(lcs) == 3 and lcs[2].is_trivial()
    assert group.power_subgroup(3).is_trivial()
    assert group.exponent() == 3


def test_element_orders_and_powers(groups):
    q8 = groups("quaternion_8")
    orders = sorted(q8.element_order(x) for x in q8.elements())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    d8 = groups("dihedral_8")
    assert d8.exponent() == 4
    assert d8.power_set(2) == d8.power_subgroup(2).elements
    assert d8.power_subgroup(2) is d8.power_subgroup(2)  # built once per k
    assert d8.power_set(2) is d8.power_set(2)


def test_series_and_abelianization(groups):
    for name, invs in [
        ("dihedral_8", (2, 2)),
        ("quaternion_8", (2, 2)),
        ("heisenberg_3", (3, 3)),
        ("wreath_c3_c3", (3, 3)),
        ("cyclic_27", (27,)),
    ]:
        group = groups(name)
        assert group.abelianization_invariants() == invs
        lcs = group.lower_central_series()
        ds = group.derived_series()
        # gamma_2 = G' always
        assert lcs[1].elements == ds[1].elements


def test_maximal_class_families(groups):
    for m in (3, 4, 5, 6, 7):
        group = groups(f"dihedral_{2**m}")
        assert group.nilpotency_class() == m - 1
        assert group.exponent() == 2 ** (m - 1)
        sd = groups(f"semidihedral_{2**m}") if m >= 4 else None
        if sd is not None:
            assert sd.nilpotency_class() == m - 1
        q = groups(f"quaternion_{2**m}")
        assert q.nilpotency_class() == m - 1


def test_classify_flags(groups):
    heis = groups("heisenberg_3").classify()
    assert heis.nilpotency_class == 2
    assert heis.is_regular is True
    assert heis.is_metabelian
    assert heis.central_pn == 1
    assert not heis.is_powerful
    assert heis.condition1_m is None  # γ₂ = Z not inside G^3 = 1
    assert heis.condition2  # γ₃ = 1 ⊆ G^9 vacuously

    d8 = groups("dihedral_8").classify()
    assert d8.nilpotency_class == 2
    assert not d8.is_powerful  # γ₂ = <g3> not inside G^4 = 1
    assert d8.is_regular is False

    c33 = groups("abelian_3_3").classify()
    assert c33.is_regular is True and c33.is_powerful

    wreath = groups("wreath_c3_c3").classify()
    assert wreath.nilpotency_class == 3
    assert wreath.is_regular is False
    assert wreath.exponent == 9
    assert wreath.derived_length == 2


def test_center_contains_last_gamma(groups):
    for name in ("dihedral_32", "wreath_c3_c3", "modular_81"):
        group = groups(name)
        lcs = group.lower_central_series()
        last = lcs[-2]  # γ_c, the last nontrivial term
        assert last.elements <= group.center().elements


def test_quotient_exponent(groups):
    group = groups("dihedral_16")
    z = group.center()
    assert group.exponent(modulo=z) == 4
    assert group.exponent(modulo=group.full_subgroup()) == 1


def test_parse_catalog_roundtrip(bundled):
    pres = bundled["modular_27"].presentation
    reparsed = parse_catalog(pres.to_catalog_text())
    assert len(reparsed) == 1
    assert reparsed[0] == pres


def test_parse_catalog_errors():
    with pytest.raises(CatalogSyntaxError):
        parse_catalog("[group]\nname = x\nngens = 2\norders = 2 2\npow 5 : g1\n")
    with pytest.raises(CatalogSyntaxError):
        parse_catalog(
            "[group]\nname = x\nngens = 1\norders = 2\n"
            "[group]\nname = x\nngens = 1\norders = 2\n"
        )
    with pytest.raises(CatalogSyntaxError):
        parse_catalog("[group]\nname = y\norders = 4\nngens = 1\n")  # composite order
    for line in ("ngens = two", "prime = p", "orders = 2 x"):
        with pytest.raises(CatalogSyntaxError) as excinfo:
            parse_catalog(f"[group]\nname = z\n{line}\n")
        assert excinfo.value.lineno == 3
    for line in (
        "pow 1 : g2^5",  # exponent beyond the order
        "comm 2 1 : g3^3",
        "pow 1 : g3 g2",  # indices not increasing
        "pow 1 : g2\npow 1 : g2^2",  # the second line repeats a relation
        "comm 3 1 : g4\ncomm 3 1 : g4^2",
        "comm 1 2 :",  # an empty word does not excuse a bad header
        "comm 2 2 :",
    ):
        with pytest.raises(CatalogSyntaxError) as excinfo:
            parse_catalog(f"[group]\nname = w\nngens = 4\norders = 3 3 3 3\n{line}\n")
        assert excinfo.value.lineno == 5 + line.count("\n"), line
    for prime in (3, 4):  # declared prime vs orders; a declared prime that is not prime
        with pytest.raises(CatalogSyntaxError) as excinfo:
            parse_catalog(f"[group]\nname = v\nprime = {prime}\nngens = 2\norders = 2 2\n")
        assert excinfo.value.lineno == 3
    for line in ("name = b", "ngens = 2", "orders = 2 2", "prime = 2"):
        with pytest.raises(CatalogSyntaxError, match="repeated") as excinfo:
            parse_catalog(f"[group]\nname = a\nprime = 3\nngens = 1\norders = 3\n{line}\n")
        assert excinfo.value.lineno == 6, line


def _random_presentation(rng, equal_orders):
    n = rng.randint(2, 5)
    if equal_orders:
        orders = [rng.choice((2, 3, 5))] * n
    else:
        orders = [rng.choice((2, 3, 5)) for _ in range(n)]

    def word(low, min_len=0):
        gens = sorted(rng.sample(range(low, n), rng.randint(min_len, n - low)))
        return tuple((g, rng.randrange(1, orders[g])) for g in gens)

    return make_presentation(
        "r",
        orders,
        power_words={i: word(i + 1, min_len=int(i == 0)) for i in range(n)},
        comm_words={(j, i): word(j + 1) for j in range(n) for i in range(j)},
    )


def _corrupt(lines, corruption, rng):
    """Corrupt exactly one line of a valid block; return the 1-based line at fault."""
    if corruption == "repeat":
        k = rng.randrange(1, len(lines))
        at = rng.randint(k + 1, len(lines))
        lines.insert(at, lines[k])
        return at + 1
    if corruption == "composite":
        k = next(k for k, line in enumerate(lines) if line.startswith("orders"))
        orders = lines[k].split("=")[1].split()
        g = rng.randrange(len(orders))
        orders[g] = str(int(orders[g]) ** 2)
        lines[k] = "orders = " + " ".join(orders)
        return k + 1
    if corruption == "prime":
        k = next(k for k, line in enumerate(lines) if line.startswith("prime"))
        p = int(lines[k].split("=")[1])
        lines[k] = f"prime = {rng.choice([q for q in (2, 3, 5, 7) if q != p])}"
        return k + 1
    k = rng.choice([k for k, line in enumerate(lines) if line.startswith(("pow", "comm"))])
    header, _, word = lines[k].partition(" : ")
    tokens = word.split()
    if corruption == "exponent":
        t = rng.randrange(len(tokens))
        g = int(tokens[t][1:].split("^")[0])
        orders = next(line for line in lines if line.startswith("orders")).split()[2:]
        tokens[t] = f"g{g}^{int(orders[g - 1]) + rng.randint(0, 2)}"
    elif corruption == "non_increasing":
        tokens.append(tokens[0])
    else:  # a generator whose index does not exceed the header's first index
        tokens.insert(0, f"g{header.split()[1]}")
    lines[k] = f"{header} : {' '.join(tokens)}"
    return k + 1


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32),
    st.sampled_from(
        ["exponent", "non_increasing", "low_generator", "composite", "prime", "repeat"]
    ),
)
def test_one_corrupted_line_is_reported_at_that_line(seed, corruption):
    rng = random.Random(seed)
    pres = _random_presentation(rng, equal_orders=corruption == "prime" or rng.random() < 0.5)
    lines = pres.to_catalog_text().splitlines()
    lineno = _corrupt(lines, corruption, rng)
    with pytest.raises(CatalogSyntaxError) as excinfo:
        parse_catalog("\n".join(lines) + "\n")
    assert excinfo.value.lineno == lineno, (lines, str(excinfo.value))


_numbers = st.integers(-2, 12).map(str) | st.sampled_from(["two", "2 2", "3 3 3", "5 x", ""])
_tokens = st.builds(
    lambda g, e: f"g{g}" if e is None else f"g{g}^{e}",
    st.integers(0, 6), st.none() | st.integers(-1, 6),
) | st.sampled_from(["g", "x3", "g2^", "^2"])
_words = st.lists(_tokens, max_size=4).map(" ".join)
_catalog_lines = st.one_of(
    st.just("[group]"),
    st.builds("{} = {}".format,
              st.sampled_from(["name", "prime", "ngens", "orders", "colour"]), _numbers),
    st.builds("pow {} : {}".format, st.integers(-1, 6), _words),
    st.builds("comm {} {} : {}".format, st.integers(0, 6), st.integers(0, 6), _words),
    st.sampled_from(["", "# comment", "pow", "comm 2 1", "name"]),
    st.text(max_size=12),
)


@settings(max_examples=100, deadline=None)
@given(st.booleans(), st.lists(_catalog_lines, max_size=12))
def test_parse_catalog_fuzz_raises_only_syntax_errors(header, lines):
    text = "\n".join((["[group]"] if header else []) + lines)
    try:
        parse_catalog(text)
    except CatalogSyntaxError as exc:
        assert isinstance(exc.lineno, int)
        assert 1 <= exc.lineno <= len(text.splitlines())


def test_catalog_text_round_trips(bundled):
    from schurlab.multiplier import schur_cover

    for entry in bundled.values():
        pres = entry.presentation
        assert parse_catalog(pres.to_catalog_text()) == [pres], pres.name
        if pres.order <= 81:
            cover = schur_cover(pres).cover
            assert parse_catalog(cover.to_catalog_text()) == [cover], cover.name


def test_word_of():
    assert word_of([0, 2, 1]) == ((1, 2), (2, 1))
