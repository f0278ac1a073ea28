import random
import re
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab.intlinalg import LatticeBasis, quotient_invariants
from schurlab.multiplier import (
    DEFAULT_ORACLE_CAP,
    ORACLE_HARD_CAP,
    AbelianInvariants,
    MultiplierError,
    OracleCapExceeded,
    _cayley_tree,
    _find_identity,
    _generating_set,
    bar_homology,
    exterior_exponent,
    multiplication_table,
    schur_cover,
    schur_multiplier,
    tails_matrix,
)
from schurlab.pcgroup import (
    Collector,
    InconsistentPresentation,
    PcGroup,
    Violation,
    check_consistency,
    group_of,
    make_presentation,
    word_of,
)


KNOWN_MULTIPLIERS = {
    "cyclic_16": (),
    "cyclic_27": (),
    "abelian_2_2": (2,),
    "abelian_3_3": (3,),
    "dihedral_8": (2,),
    "quaternion_8": (),
    "heisenberg_3": (3, 3),
}


def test_abelian_invariants_validation():
    inv = AbelianInvariants((2, 4))
    assert inv.order == 8 and inv.exponent == 4
    with pytest.raises(MultiplierError):
        AbelianInvariants((4, 2))  # not a divisibility chain


def test_known_multipliers(bundled):
    for name, torsion in KNOWN_MULTIPLIERS.items():
        pres = bundled[name].presentation
        assert schur_multiplier(pres, method="tails").torsion == torsion, name
        assert schur_multiplier(pres, method="bar").torsion == torsion, name


def test_multiplier_of_elementary_abelian(bundled):
    # M((C_p)^k) is elementary abelian of rank C(k,2)
    assert schur_multiplier(bundled["abelian_3_3_3"].presentation).torsion == (3, 3, 3)
    assert schur_multiplier(bundled["abelian_2_2_2"].presentation).torsion == (2, 2, 2)


def test_bar_h1_matches_abelianization(bundled):
    for name in ("dihedral_8", "heisenberg_3", "cyclic_9", "abelian_4_2"):
        group = group_of(bundled[name].presentation)
        h1 = bar_homology(multiplication_table(group), degree=1)
        assert h1.torsion == group.abelianization_invariants()


def test_oracle_caps(bundled):
    table = multiplication_table(group_of(bundled["heisenberg_3"].presentation))
    with pytest.raises(OracleCapExceeded):
        bar_homology(table, degree=2, cap=8)
    with pytest.raises(OracleCapExceeded):
        bar_homology(table, degree=2, cap=ORACLE_HARD_CAP + 1)


@pytest.mark.parametrize("method", ["bar", "both"])
@pytest.mark.parametrize("order_over_cap", [True, False])
def test_oracle_cap_checked_before_the_table(bundled, method, order_over_cap):
    if order_over_cap:
        pres, cap = bundled["modular_625"].presentation, DEFAULT_ORACLE_CAP
    else:  # a cap past the hard limit, on a group no other test tabulates
        pres, cap = make_presentation("cyclic_5", [5]), ORACLE_HARD_CAP + 1
    with pytest.raises(OracleCapExceeded, match="exceeds"):
        schur_multiplier(pres, method=method, oracle_cap=cap)
    assert "rows" not in group_of(pres).__dict__


def test_oracle_warns_above_default_cap(bundled):
    group = group_of(bundled["cyclic_64"].presentation)
    table = multiplication_table(group)
    with pytest.warns(RuntimeWarning):
        h1 = bar_homology(table, degree=1, cap=ORACLE_HARD_CAP)
    assert h1.torsion == (64,)


def test_generating_set_is_minimal(bundled):
    # Burnside basis theorem: an irredundant generating set of a p-group has
    # d(G) elements, the rank of G/Φ(G) = the number of invariants of G/G'.
    for entry in bundled.values():
        if entry.order > ORACLE_HARD_CAP:
            continue
        group = group_of(entry.presentation)
        table = multiplication_table(group)
        e = _find_identity(table)
        gens = _generating_set(table, e)
        assert len(_cayley_tree(table, e, gens)) == entry.order, entry.name
        assert len(gens) == len(group.abelianization_invariants()), entry.name


def test_bar_lattice_takes_only_the_non_tree_rows(bundled, monkeypatch):
    # D16 with S = {2 generators}: 15 * 2 rows d2[g|s], 15 * 15 * 2 rows
    # d3[g|h|s], and 13 tree edges out of elements other than e, which solve
    # 13 of the d2 rows and 15 * 13 of the d3 rows by hand.
    calls = []
    add = LatticeBasis.add

    def counting_add(self, vec):
        calls.append(1)
        return add(self, vec)

    monkeypatch.setattr(LatticeBasis, "add", counting_add)
    group = group_of(bundled["dihedral_16"].presentation)
    assert bar_homology(multiplication_table(group), 2).torsion == (2,)
    assert len(calls) <= 17 + 255


def _textbook_bar_homology(table):
    """H1 and H2 from the whole normalized bar complex: every one of the
    (m-1)^2 rows of d2 and (m-1)^3 rows of d3, no generating set, no tree."""
    m = len(table)
    (e,) = [x for x in range(m) if table[x][x] == x]
    nontriv = [g for g in range(m) if g != e]
    c1 = {g: i for i, g in enumerate(nontriv)}
    c2 = {gh: i for i, gh in enumerate(product(nontriv, repeat=2))}

    def row(terms, coord):
        vec = Counter()
        for cell, v in terms:
            if cell in coord:
                vec[coord[cell]] += v
        return {c: v for c, v in vec.items() if v}

    d2 = [row(((h, 1), (table[g][h], -1), (g, 1)), c1) for g, h in c2]
    d3 = [row((((h, k), 1), ((table[g][h], k), -1), ((g, table[h][k]), 1), ((g, h), -1)), c2)
          for g, h, k in product(nontriv, repeat=3)]
    h1_torsion, h1_free = quotient_invariants(m - 1, d2)
    torsion, coker_free = quotient_invariants((m - 1) ** 2, d3)
    rank_d2 = m - 1 - h1_free
    return (AbelianInvariants(h1_torsion, h1_free),
            AbelianInvariants(torsion, coker_free - rank_d2))


def test_bar_oracle_matches_the_textbook_complex(bundled):
    groups = [group_of(e.presentation) for e in bundled.values() if e.order <= 9]
    groups += [
        PcGroup(make_presentation("c6", [2, 3], power_words={0: ((1, 1),)})),
        PcGroup(make_presentation("c2_x_c6", [2, 2, 3], power_words={1: ((2, 1),)})),
    ]
    assert len(groups) == 14  # the 12 bundled groups of order <= 9, C6, C2 x C6
    for group in groups:
        table = multiplication_table(group)
        h1, h2 = _textbook_bar_homology(table)
        assert bar_homology(table, 1) == h1, group.pres.name
        assert bar_homology(table, 2) == h2, group.pres.name
    assert h1.torsion == (2, 6) and h2.torsion == (2,)  # C2 x C6


def test_bar_oracle_ignores_the_element_labelling(bundled):
    rng = random.Random(1)
    for name in ("abelian_2_2_2", "quaternion_8", "abelian_3_3", "dihedral_16", "modular_16"):
        table = multiplication_table(group_of(bundled[name].presentation))
        m = len(table)
        perm = list(range(m))
        while perm[0] == 0:  # the identity, index 0 in the listing, moves
            rng.shuffle(perm)
        relabelled = [[0] * m for _ in range(m)]
        for x in range(m):
            for y in range(m):
                relabelled[perm[x]][perm[y]] = perm[table[x][y]]
        assert _find_identity(relabelled) == perm[0] != 0
        for degree in (1, 2):
            assert bar_homology(relabelled, degree) == bar_homology(table, degree), name


_LOG_CAP = {2: 5, 3: 3, 5: 2}  # largest k with p^k <= 32


@st.composite
def abelian_p_groups(draw):
    """(p, [a1, ..., ak]) for C_{p^a1} x ... x C_{p^ak} of order <= 32."""
    p = draw(st.sampled_from(sorted(_LOG_CAP)))
    room = _LOG_CAP[p]
    exps = []
    while room and (not exps or draw(st.booleans())):
        a = draw(st.integers(1, room))
        exps.append(a)
        room -= a
    return p, sorted(exps)


def _abelian_presentation(p, exps):
    # one pc generator per factor of p; within a cyclic factor x_i^p = x_{i+1}
    power_words, start = {}, 0
    for a in exps:
        for i in range(start, start + a - 1):
            power_words[i] = ((i + 1, 1),)
        start += a
    return make_presentation("abelian", [p] * start, power_words=power_words)


@settings(max_examples=40, deadline=None)
@given(abelian_p_groups())
def test_bar_oracle_closed_forms_on_abelian_groups(case):
    p, exps = case
    group = PcGroup(_abelian_presentation(p, exps))
    table = multiplication_table(group)
    h1 = bar_homology(table, 1)
    assert h1.torsion == tuple(p**a for a in exps) == group.abelianization_invariants()
    # M(C_m1 x ... x C_mk) = ⊕_{i<j} C_gcd(mi, mj)
    h2 = bar_homology(table, 2)
    assert h2.torsion == tuple(sorted(p ** min(a, b) for a, b in combinations(exps, 2)))


@pytest.mark.filterwarnings("ignore:bar oracle running above the default cap:RuntimeWarning")
def test_bar_equals_tails_above_default_cap(bundled):
    for name in ("cyclic_64", "dihedral_64", "abelian_3_3_3_3", "wreath_c3_c3"):
        pres = bundled[name].presentation
        bar = schur_multiplier(pres, method="bar", oracle_cap=ORACLE_HARD_CAP)
        assert bar == schur_multiplier(pres, method="tails"), name


def test_tail_permutation_invariance(bundled):
    for name, entry in sorted(bundled.items()):
        pres = entry.presentation
        base = schur_multiplier(pres, method="tails")
        ntails = pres.ngens + pres.ngens * (pres.ngens - 1) // 2
        perm = list(reversed(range(ntails)))
        assert schur_multiplier(pres, method="tails", tail_perm=perm) == base, name
        cover = schur_cover(pres, tail_perm=perm)
        assert cover.multiplier == base, name
        expected = exterior_exponent(pres, schur_cover(pres))
        assert exterior_exponent(pres, cover) == expected, name


def _reference_overlaps(pres):
    """Every overlap test of ``pres`` rebuilt apart from its cached overlap
    run: each side collected in two stages by a fresh collector, once without
    tails and once with dense tails.  Yields (family, indices, lhs, rhs,
    lhs tails, rhs tails) in the run's order."""
    collector = Collector(pres)
    orders, n, r = pres.relative_orders, pres.ngens, collector.ntails
    tests = []  # (family, indices, (first, before, after) of lhs, same of rhs)
    for k in range(n):
        for j in range(k):
            for i in range(j):
                tests.append(("triple", (k + 1, j + 1, i + 1),
                              (((j, 1), (i, 1)), ((k, 1),), ()),
                              (((k, 1), (j, 1)), (), ((i, 1),))))
    for j in range(n):
        for i in range(j):
            tests.append(("power_left", (j + 1, i + 1),
                          (((j, orders[j]),), (), ((i, 1),)),
                          (((j, 1), (i, 1)), ((j, orders[j] - 1),), ())))
            tests.append(("power_right", (j + 1, i + 1),
                          (((i, orders[i]),), ((j, 1),), ()),
                          (((j, 1), (i, 1)), (), ((i, orders[i] - 1),))))
    for i in range(n):
        tests.append(("power_self", (i + 1,),
                      (((i, orders[i]),), ((i, 1),), ()),
                      (((i, orders[i]),), (), ((i, 1),))))

    def collect(first, before, after, tails=None):
        e1 = collector.collect(first, tails)
        return collector.collect(before + word_of(e1) + after, tails)

    for family, indices, lhs, rhs in tests:
        lt, rt = [0] * r, [0] * r
        words = collect(*lhs, lt), collect(*rhs, rt)
        assert words == (collect(*lhs), collect(*rhs)), pres.name
        yield (family, indices, *words, lt, rt)


def _reference_tails_rows(pres, tail_perm):
    """The tails matrix from ``_reference_overlaps``: the sides must agree,
    and row = lhs tails - rhs tails, columns in ``tail_perm`` order."""
    r = pres.ngens * (pres.ngens + 1) // 2
    perm = tail_perm or range(r)
    rows = []
    for _, _, lhs, rhs, lt, rt in _reference_overlaps(pres):
        assert lhs == rhs, pres.name
        rows.append({j: lt[old] - rt[old] for j, old in enumerate(perm) if lt[old] != rt[old]})
    return rows, r


def test_tails_matrix_matches_separate_collections(bundled):
    presentations = [e.presentation for e in bundled.values() if e.order <= 81]
    # a cover's relation words run on into its tail generators
    presentations += [schur_cover(e.presentation).cover
                      for e in bundled.values() if e.order <= 64]
    for pres in presentations:
        r = pres.ngens * (pres.ngens + 1) // 2
        for perm in (None, list(reversed(range(r)))):
            rows, ncols = tails_matrix(pres, perm)
            ref_rows, ref_ncols = _reference_tails_rows(pres, perm)
            assert ncols == ref_ncols == r, pres.name
            assert rows == ref_rows, (pres.name, perm is not None)


def test_overlap_records_of_inconsistent_presentation_match_separate_collections():
    # the corrupted presentation of test_inconsistent_presentation_rejected
    bad = make_presentation("bad", [2, 2, 3], comm_words={(1, 0): ((2, 1),)}, prime=None)
    reference = list(_reference_overlaps(bad))
    records = [
        (family, indices, lhs, rhs, {k: a - b for k, (a, b) in enumerate(zip(lt, rt)) if a != b})
        for family, indices, lhs, rhs, lt, rt in reference
    ]
    assert records == list(bad.overlaps)
    violations = [Violation(family, indices, lhs, rhs)
                  for family, indices, lhs, rhs, _, _ in reference if lhs != rhs]
    assert violations and check_consistency(bad) == violations


def test_tails_method_rejects_inconsistent_presentation():
    bad = make_presentation("bad", [2, 2, 3], comm_words={(1, 0): ((2, 1),)}, prime=None)
    first = re.escape(str(check_consistency(bad)[0]))
    with pytest.raises(InconsistentPresentation, match=first):
        tails_matrix(bad)
    with pytest.raises(InconsistentPresentation, match=first):
        schur_multiplier(bad, method="tails")
    with pytest.raises(InconsistentPresentation, match=first):
        schur_cover(bad)


def test_cover_laws(bundled):
    for name in ("heisenberg_3", "abelian_2_2", "dihedral_8", "cyclic_9", "modular_27"):
        pres = bundled[name].presentation
        result = schur_cover(pres)
        group = group_of(pres)
        cover = PcGroup(result.cover)  # built apart from result.group
        assert cover.order == group.order * result.multiplier.order
        kernel = [cover.normalize([(g, e) for g, e in enumerate(w)])
                  for w in result.kernel_generators]
        center = cover.center()
        for k in kernel:
            assert k in center
        sub = cover.subgroup(kernel, cover.generators())
        assert sub.order == result.multiplier.order


def test_cover_examples(bundled):
    def ext(name):
        pres = bundled[name].presentation
        return exterior_exponent(pres, schur_cover(pres))

    heis = schur_cover(bundled["heisenberg_3"].presentation)
    assert heis.cover.order == 243
    assert ext("heisenberg_3") == 3
    v4 = schur_cover(bundled["abelian_2_2"].presentation)
    assert v4.cover.order == 8
    assert ext("abelian_2_2") == 2
    assert ext("cyclic_9") == 1
    assert ext("dihedral_8") == 4


def test_method_both_agrees_on_small_groups(bundled):
    for name, entry in bundled.items():
        if entry.order <= 27:
            inv = schur_multiplier(entry.presentation, method="both")
            assert all(t > 1 for t in inv.torsion)


def test_unknown_method(bundled):
    with pytest.raises(MultiplierError):
        schur_multiplier(bundled["cyclic_2"].presentation, method="magic")


def test_exterior_exponent_builds_no_cover_series(bundled):
    # γ₂(H) of this cover is abelian, so its exponent is read off its terms
    # before the cover's class (and its lower central series) is asked for
    pres = bundled["heisenberg_3_x_c3"].presentation
    cover = schur_cover(pres)
    assert exterior_exponent(pres, cover) == 3
    assert "_lower_central" not in vars(cover.group)
