import dataclasses
import itertools
import random
import tracemalloc
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab import verifier
from schurlab.multiplier import schur_cover
from schurlab.pcgroup import (
    DEFAULT_CAP,
    TABLE_ORDER,
    CatalogSyntaxError,
    Collector,
    EnumerationCapExceeded,
    InconsistentPresentation,
    PcError,
    PcGroup,
    _nullspace_mod,
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


def _splice_collect(collector, letters, tails=None):
    """Collection from the left by splicing one list at a cursor, which
    backs up one position after each rewrite: the reference that
    ``Collector.collect``'s rewrite sequence, and so every tail count, is
    pinned to."""
    orders, power_words = collector.orders, collector.power_words
    comm_words, comm_tail = collector.comm_words, collector.comm_tail_index

    def push_inverse(g, out):
        out.append([g, orders[g] - 1])
        for h, e in reversed(power_words[g]):
            for _ in range(e):
                push_inverse(h, out)
        if tails is not None:
            tails[g] -= 1

    buf = []
    for g, e in letters:
        if e > 0:
            buf.append([g, e])
        for _ in range(-e):
            push_inverse(g, buf)
    i = 0
    while i < len(buf):
        g, e = buf[i]
        if i + 1 < len(buf) and buf[i + 1][0] == g:
            buf[i][1] = e + buf[i + 1][1]
            del buf[i + 1]
            continue
        if e >= orders[g]:
            repl = [[g, e - orders[g]]] if e - orders[g] else []
            repl.extend([h, ee] for h, ee in power_words[g])
            buf[i : i + 1] = repl
            if tails is not None:
                tails[g] += 1
            i = max(i - 1, 0)
            continue
        if i + 1 < len(buf) and buf[i + 1][0] < g:
            g2, e2 = buf[i + 1]
            repl = [[g, e - 1]] if e - 1 else []
            repl += [[g2, 1], [g, 1]] + [[h, ee] for h, ee in comm_words.get((g, g2), ())]
            repl += [[g2, e2 - 1]] if e2 - 1 else []
            buf[i : i + 2] = repl
            if tails is not None:
                tails[comm_tail[(g, g2)]] += 1
            i = max(i - 1, 0)
            continue
        i += 1
    exps = [0] * collector.n
    for g, e in buf:
        exps[g] = e
    return tuple(exps)


def _collector_cases(bundled):
    """Every bundled presentation, the covers of order <= 256, D8 x C3 and
    the inconsistent presentation of ``test_inconsistent_presentation_rejected``."""
    for _name, entry in sorted(bundled.items()):
        yield entry.presentation
        if entry.order <= 256:
            cover = schur_cover(entry.presentation).cover
            if cover.order <= 256:
                yield cover
    yield d8_x_c3()
    yield make_presentation("bad", [2, 2, 3], comm_words={(1, 0): ((2, 1),)}, prime=None)


def test_collector_rewrites_as_the_list_splicing_reference(bundled):
    rng = random.Random(24)
    for pres in _collector_cases(bundled):
        collector = pres.collector
        for _ in range(40):
            letters = [
                (rng.randrange(pres.ngens), rng.choice((-2, -1, 1, 1, 2, 3)))
                for _ in range(rng.randint(0, 9))
            ]
            expected_tails = defaultdict(int)
            expected = _splice_collect(collector, letters, expected_tails)
            expected_tails = {k: v for k, v in expected_tails.items() if v}
            dense = [0] * collector.ntails
            assert collector.collect(letters, dense) == expected, (pres.name, letters)
            assert {k: v for k, v in enumerate(dense) if v} == expected_tails, (pres.name, letters)
            sparse = defaultdict(int)
            assert collector.collect(letters, sparse) == expected, (pres.name, letters)
            assert {k: v for k, v in sparse.items() if v} == expected_tails, (pres.name, letters)
            assert collector.collect(letters) == expected, (pres.name, letters)


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
    """multiply, inverse, power and commutator agree with collecting the
    words directly, and membership in a cyclic subgroup <v> agrees with the
    powers of v, each collected from the one before."""
    collect = Collector(group.pres).collect
    for _ in range(samples):
        u, v = _random_element(group, rng), _random_element(group, rng)
        assert group.multiply(u, v) == collect(word_of(u) + word_of(v)), (u, v)
        assert group.inverse(u) == collect(_inverse_word(u)), u
        k = rng.randrange(-20, 21)
        letters = word_of(u) * k if k >= 0 else _inverse_word(u) * -k
        assert group.power(u, k) == collect(letters), (u, k)
        uv_vu = word_of(u) + word_of(v) + _inverse_word(u) + _inverse_word(v)
        assert group.commutator(u, v) == collect(uv_vu), (u, v)
    for _ in range(max(samples // 20, 2)):
        v = _random_element(group, rng)
        powers, w = {group.identity}, collect(word_of(v))
        while w != group.identity:
            powers.add(w)
            w = collect(word_of(w) + word_of(v))
        sub = group.subgroup([v])
        assert sub.order == len(powers), v
        assert all(w in sub and sub.sift(w) == group.identity for w in powers), v
        for _ in range(samples // 4):
            u = _random_element(group, rng)
            assert (u in sub) == (u in powers), (u, v)


def test_table_arithmetic_matches_collection(bundled):
    rng = random.Random(1)
    small = [e.presentation for e in bundled.values() if e.order <= 81]
    for pres in small + [bundled["modular_625"].presentation, d8_x_c3()]:
        _assert_arithmetic_matches_collection(PcGroup(pres), rng, 100)
    cover = schur_cover(bundled["heisenberg_3_x_c3"].presentation).group
    assert cover.order == 6561 > TABLE_ORDER and not cover._tabled
    _assert_arithmetic_matches_collection(cover, rng, 300)  # by collection
    cover.elements()
    _assert_arithmetic_matches_collection(cover, rng, 300)  # by index


def test_multiply_keeps_no_per_pair_state(bundled):
    group = PcGroup(bundled["heisenberg_3_x_c3"].presentation)
    elems = group.elements()
    assert len(elems) == 81
    for u in elems:  # fill every column entry before measuring
        for g in group.generators():
            group.multiply(u, g)
    tracemalloc.start()
    try:
        for _ in range(2):
            for u in elems:
                for v in elems:
                    group.multiply(u, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 128 << 10  # a memo of the 6,561 products takes about 0.7 MiB


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


def d8_x_c3():
    """D8 x C3, whose relative orders mix primes."""
    return make_presentation(
        "d8_x_c3", [2, 2, 2, 3], power_words={1: ((2, 1),)}, comm_words={(1, 0): ((2, 1),)}
    )


def _assert_columns_match_collection(group, xs):
    """Entry x of each right-multiplication column, read as the product of
    element x and a pc generator, is that element's word followed by the
    generator, collected."""
    collect = Collector(group.pres).collect
    elems = group.elements()
    for g, gen in enumerate(group.generators()):
        for x in xs:
            expected = collect(word_of(elems[x]) + ((g, 1),))
            assert group.multiply(elems[x], gen) == expected, (group.pres.name, elems[x], g)


def test_columns_match_collection(bundled):
    small = [PcGroup(e.presentation) for e in bundled.values() if e.order <= 625]
    for group in small + [PcGroup(d8_x_c3())]:
        _assert_columns_match_collection(group, range(group.order))
    cover = schur_cover(bundled["heisenberg_3_x_c3"].presentation).group
    assert cover.order == 6561 > TABLE_ORDER
    cover.elements()  # products walk the columns from here on
    _assert_columns_match_collection(cover, random.Random(3).sample(range(cover.order), 400))


def test_listed_group_fills_its_tables_without_collecting(bundled, words_collected):
    groups = [PcGroup(e.presentation) for e in bundled.values() if e.order <= 81]
    groups.append(PcGroup(d8_x_c3()))
    cover = schur_cover(bundled["heisenberg_3_x_c3"].presentation).group
    for group in groups + [cover]:
        group.elements()
    words_collected.clear()
    for group in groups:
        assert len(group.rows) == len(group.inverses) == group.order
    rng = random.Random(4)
    for _ in range(200):
        cover.multiply(_random_element(cover, rng), _random_element(cover, rng))
    assert words_collected == []


def test_overlap_run_collects_one_word_per_side(bundled, words_collected):
    # the first stage of each side is one relation, read off without collecting
    for entry in bundled.values():
        fresh = dataclasses.replace(entry.presentation)  # no cached overlap run
        words_collected.clear()
        assert len(fresh.overlaps) * 2 == len(words_collected), entry.name


def _squaring_order(group, u):
    """The least p^k with u^(p^k) = 1, each power by repeated squaring."""
    p = group.pres.relative_orders[0]
    q = 1
    while group.power(u, q) != group.identity:
        q *= p
    return q


def test_element_orders_and_power_maps_match_squaring(bundled):
    cover = schur_cover(bundled["heisenberg_3_x_c3"].presentation).group
    for group in [PcGroup(e.presentation) for e in bundled.values()] + [cover]:
        name, elems, p = group.pres.name, group.elements(), group.pres.prime
        orders = [_squaring_order(group, u) for u in elems]
        assert group.element_orders == orders, name
        assert [group.element_order(u) for u in elems] == orders, name
        assert group.exponent() == max(orders)
        maps = group.power_maps
        assert p ** (len(maps) - 1) == max(orders), name  # j = 0 .. log_p exp(G)
        for j, power in enumerate(maps):
            assert [elems[y] for y in power] == [group.power(u, p**j) for u in elems], (name, j)
        center = group.center()
        modulo_center = []
        for u in elems:
            q = 1
            while group.power(u, q) not in center:
                q *= p
            modulo_center.append(q)
        assert group.exponent(modulo=center) == max(modulo_center), name


def _sweep_cases(bundled):
    """Every bundled group, the cover of each bundled group of order <= 243
    (that of abelian_3_3_3_3 has order 3^10; on a 2-core Xeon its sweeps take
    about 2.5 s, 0.7 s of them the center and exp(G)), and D8 x C3."""
    for _name, entry in sorted(bundled.items()):
        yield PcGroup(entry.presentation)
        if entry.order <= 243:
            yield schur_cover(entry.presentation).group
    yield PcGroup(d8_x_c3())


def test_center_exponents_and_power_subgroups_match_sweeps(bundled, sweeps):
    for group in _sweep_cases(bundled):
        name = group.pres.name
        center = group.center()
        z = sweeps.center(group)
        assert center.elements == z, name
        assert center.order == len(z), name
        assert group.exponent() == sweeps.exponent(group), name
        assert group.exponent(modulo=center) == sweeps.exponent(group, modulo=z), name
        subgroups = [center, group.gamma2]
        for m in range(3, group.nilpotency_class() + 1):
            gamma = group.gamma(m)
            expected = sweeps.exponent(group, modulo=gamma.elements)
            assert group.exponent(modulo=gamma) == expected, name
            subgroups.append(gamma)
        p = group.pres.prime
        for k in () if p is None else sorted({p, p * p, 4} if p == 2 else {p, p * p}):
            power = group.power_subgroup(k)
            assert power.elements == sweeps.power_subgroup(group, k), (name, k)
            subgroups.append(power)
        for sub in subgroups:
            assert sub.exponent() == sweeps.exponent(group, over=sub.elements), name
        # exp(HN/N), read after exp(H), so a cache that ignores N shows
        for sub in [group.gamma2] + ([] if p is None else [group.power_subgroup(p)]):
            for normal in (center, group.gamma(3)):
                expected = sweeps.exponent(group, over=sub.elements, modulo=normal.elements)
                assert sub.exponent(modulo=normal) == expected, name


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
    assert len(lcs) == 3 and not lcs[2].terms
    assert not group.power_subgroup(3).terms
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
    for name, ks in (("dihedral_8", (1, 2, 3, 4, 6, 12)), ("wreath_c3_c3", (2, 3, 6, 9, 18)),
                     ("heisenberg_3", (2, 3, 6))):
        group = groups(name)
        for k in ks:  # the pth map, once per factor p of k
            powers = {group.power(w, k) for w in group.elements()}
            assert group.power_set(k) == powers, (name, k)
            assert group.power_subgroup(k).elements == group.subgroup(powers).elements, (name, k)


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

    # wreath_c3_c3 x C_3: odd p, class 3 >= p and order 243 > 81, so no
    # exact criterion applies and is_regular samples pairs
    pres = groups("wreath_c3_c3").pres
    sampled = PcGroup(make_presentation(
        "wreath_c3_c3_x_c3", [3] * 5,
        power_words=dict(enumerate(pres.power_words)), comm_words=dict(pres.comm_words),
    ))
    assert sampled.order == 243 and sampled.nilpotency_class() == 3
    assert sampled.is_regular() is False


def test_center_contains_last_gamma(groups):
    for name in ("dihedral_32", "wreath_c3_c3", "modular_81"):
        group = groups(name)
        lcs = group.lower_central_series()
        last = lcs[-2]  # γ_c, the last nontrivial term
        assert last.elements <= group.center().elements


def test_nullspace_mod_is_an_echelon_basis():
    """``_center`` builds Z(G) from this basis, so check it against the
    nullspace found by enumerating F_q^r, on seeded random matrices with
    r <= 5 rows and at most 4 columns."""
    rng = random.Random(19)
    for q in (2, 3, 5):
        for _ in range(120):
            r, width = rng.randint(1, 5), rng.randint(1, 4)
            rows = [[rng.randrange(-q, 2 * q) for _ in range(width)] for _ in range(r)]

            def in_null(c):
                return all(
                    sum(ci * row[j] for ci, row in zip(c, rows)) % q == 0
                    for j in range(width)
                )

            basis = _nullspace_mod(rows, q)
            assert all(len(c) == r and in_null(c) for c in basis), rows
            leads = [next(i for i, x in enumerate(c) if x) for c in basis]
            assert len(set(leads)) == len(leads), rows
            assert all(c[i] == 1 for c, i in zip(basis, leads)), rows
            size = sum(map(in_null, itertools.product(range(q), repeat=r)))
            assert q ** len(basis) == size, rows


def _normal_closure(group, gens, conjugators, closure):
    """The closure of gens and of all their conjugates under <conjugators>,
    grown until conjugation adds nothing."""
    members = closure(group, gens)
    while True:
        conjugates = {
            group.multiply(group.multiply(c, x), group.inverse(c))
            for c in conjugators
            for x in members
        }
        if conjugates <= members:
            return members
        members = closure(group, sorted(members | conjugates))


def test_subgroup_matches_closure(bundled, closure):
    rng = random.Random(16)
    for name, entry in sorted(bundled.items()):
        if entry.order > 81:
            continue
        group = group_of(entry.presentation)
        elems = group.elements()
        subs = []
        for _ in range(4):
            gens = [rng.choice(elems) for _ in range(rng.randint(1, 3))]
            sub, members = group.subgroup(gens), closure(group, gens)
            assert sub.elements == members, (name, gens)
            assert sub.order == len(sub.elements), (name, gens)
            for d, t in sub.terms.items():
                assert not any(t[:d]) and t[d] == 1, (name, t)
            assert [x in sub for x in elems] == [x in members for x in elems], (name, gens)
            subs.append((sub, members))
            conjugators = [rng.choice(elems) for _ in range(rng.randint(1, 2))]
            normal = _normal_closure(group, gens, conjugators, closure)
            assert group.subgroup(gens, conjugators).elements == normal, (name, gens)
        for a, a_members in subs:
            for b, b_members in subs:
                assert (a <= b) == (a_members <= b_members), name


def _structure_references(ref, closure, sweeps):
    """γ₂, the lower central and derived series, the center and G^p of the
    listed group ``ref``, each an enumerated set of members: normal closures
    and closures by breadth-first search, and the sweeps of ``conftest``."""
    gens = ref.generators()
    comms = {ref.commutator(a, b) for i, a in enumerate(gens) for b in gens[i + 1:]}
    gamma2 = _normal_closure(ref, sorted(comms), gens, closure)
    lower, derived = [frozenset(ref.elements()), gamma2], [frozenset(ref.elements()), gamma2]
    while len(lower[-1]) > 1:
        comms = {ref.commutator(x, g) for x in lower[-1] for g in gens}
        lower.append(_normal_closure(ref, sorted(comms), gens, closure))
    while len(derived[-1]) > 1:
        # the commutators of a normal subgroup D form a normal set, so they
        # generate [D, D]
        derived.append(closure(ref, sorted({ref.commutator(x, y) for x in derived[-1]
                                             for y in derived[-1]})))
    p = ref.pres.prime
    power = None if p is None else closure(ref, sorted({ref.power(w, p) for w in ref.elements()}))
    return {"gamma2": gamma2, "lower": lower, "derived": derived,
            "center": sweeps.center(ref), "power": power}


def _assert_subgroup_matches(sub, members, words):
    """``sub`` has the order and members of ``members``, and membership of
    ``words`` agrees with it."""
    name = sub.group.pres.name
    assert sub.order == len(members), name
    assert [w in sub for w in words] == [w in members for w in words], name
    assert sub.elements == members, name


def _assert_series_match(group, refs, words):
    """γ₂, the center and the lower central and derived series of ``group``
    match their references."""
    series = [(group.gamma2, refs["gamma2"]), (group.center(), refs["center"])]
    series += zip(group.lower_central_series(), refs["lower"], strict=True)
    series += zip(group.derived_series(), refs["derived"], strict=True)
    for sub, members in series:
        _assert_subgroup_matches(sub, members, words)


def test_index_structure_matches_enumeration(bundled, closure, sweeps):
    """The structure computed on indices (listed groups) and by collection
    (the 3^8 cover before it is listed) equals the enumerated references."""
    cases = [e.presentation for e in bundled.values() if e.order <= 81]
    cases += [bundled["modular_625"].presentation, d8_x_c3()]
    rng = random.Random(7)
    for pres in cases:
        group, ref = PcGroup(pres), PcGroup(pres)
        refs = _structure_references(ref, closure, sweeps)
        _assert_series_match(group, refs, ref.elements())
        if pres.prime is not None:
            p, elems = pres.prime, group.elements()
            _assert_subgroup_matches(group.power_subgroup(p), refs["power"], elems)
            assert [elems[group.pth(x)] for x in range(group.order)] == [
                ref.power(u, p) for u in elems], pres.name
    cover_pres = schur_cover(bundled["heisenberg_3_x_c3"].presentation).cover
    ref = PcGroup(cover_pres)
    refs = _structure_references(ref, closure, sweeps)
    words = rng.sample(ref.elements(), 60) + rng.sample(sorted(refs["center"]), 20)
    before = PcGroup(cover_pres)
    assert before.order == 6561 > TABLE_ORDER
    _assert_series_match(before, refs, words)
    assert not before._tabled  # closures, sifts and elements all by collection
    assert not {"_words", "_walks", "_columns", "_index"} & set(vars(before))  # no tables built
    # G^3 last: the cover is not regular by class, so G^3 lists it for the power set
    _assert_subgroup_matches(before.power_subgroup(3), refs["power"], words)
    assert before._tabled  # the series built on words now sift on indices
    _assert_series_match(before, refs, words)
    after = PcGroup(cover_pres)
    elems = after.elements()
    _assert_series_match(after, refs, words)
    _assert_subgroup_matches(after.power_subgroup(3), refs["power"], words)
    for x in rng.sample(range(after.order), 500):
        assert elems[after.pth(x)] == ref.power(elems[x], 3)


def test_subgroup_order_and_membership_enumerate_nothing(monkeypatch):
    # Heisenberg(5) x C_5^3: M(G) = C_5^11, so the cover has order 5^17 and
    # γ₂(H) order 5 * 5^11, both above the enumeration cap
    pres = make_presentation("heis5_x_c5_3", [5] * 6, comm_words={(1, 0): ((2, 1),)})
    result = schur_cover(pres)
    assert result.multiplier.torsion == (5,) * 11
    gamma2 = result.group.gamma2
    assert gamma2.order == 5**12
    assert all(h in gamma2 for h in result.kernel_generators)
    assert result.group.generator(0) not in gamma2
    assert "elements" not in vars(gamma2)
    with pytest.raises(EnumerationCapExceeded, match="subgroup order 244140625"):
        gamma2.elements
    # profile reads e(G∧G) = exp(γ₂(H)) off γ₂(H)'s commuting terms
    covers = []

    def recording_cover(p):
        covers.append(schur_cover(p))
        return covers[-1]

    monkeypatch.setattr(verifier, "schur_cover", recording_cover)
    prof = verifier.profile(pres)
    assert prof.multiplier.torsion == (5,) * 11
    assert prof.exterior_exponent == 5 and prof.exterior_skip_reason is None
    assert "elements" not in vars(covers[0].group.gamma2)


def test_classify_reads_a_large_abelian_group_off_its_generators():
    # C_{3^8} x C_3^2 (order 59,049): g1, ..., g8 a chain of cubes
    pres = make_presentation(
        "c6561_x_c3_2", [3] * 10, power_words={i: ((i + 1, 1),) for i in range(7)}
    )
    group = PcGroup(pres)
    flags = group.classify()
    assert flags.exponent == 6561 and flags.nilpotency_class == 1
    assert flags.is_regular and flags.is_powerful and flags.central_pn == 0
    assert group.power_subgroup(3).order == 3**7
    assert "_words" not in vars(group)


def test_generator_words_are_built_once(groups):
    group = groups("heisenberg_3")
    assert group.generators() == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert all(group.generator(i) is g for i, g in enumerate(group.generators()))
    # each call hands out a new list, so a caller may change it
    group.generators().append(group.identity)
    assert len(group.generators()) == 3
    for i in (-1, 3):
        with pytest.raises(PcError):
            group.generator(i)


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
