from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurlab.intlinalg import LatticeBasis
from schurlab.multiplier import (
    DEFAULT_ORACLE_CAP,
    ORACLE_HARD_CAP,
    AbelianInvariants,
    MultiplierError,
    OracleCapExceeded,
    _find_identity,
    _generating_set,
    _span,
    bar_homology,
    exterior_exponent,
    multiplication_table,
    schur_cover,
    schur_multiplier,
)
from schurlab.pcgroup import PcGroup, group_of, make_presentation


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
        assert len(_span(table, e, gens)) == entry.order, entry.name
        assert len(gens) == len(group.abelianization_invariants()), entry.name


def test_bar_d3_rows_from_generators_only(bundled, monkeypatch):
    # 225 d2 rows (15 x 15 nontrivial pairs) and 225 d3 rows per generator.
    calls = []
    add = LatticeBasis.add

    def counting_add(self, vec):
        calls.append(1)
        return add(self, vec)

    monkeypatch.setattr(LatticeBasis, "add", counting_add)
    group = group_of(bundled["dihedral_16"].presentation)
    assert bar_homology(multiplication_table(group), 2).torsion == (2,)
    assert len(calls) <= 225 + 225 * 2


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
    pres = bundled["heisenberg_3"].presentation
    base = schur_multiplier(pres, method="tails")
    ntails = pres.ngens + pres.ngens * (pres.ngens - 1) // 2
    perm = list(reversed(range(ntails)))
    assert schur_multiplier(pres, method="tails", tail_perm=perm) == base
    cover = schur_cover(pres, tail_perm=perm)
    assert cover.multiplier == base
    assert exterior_exponent(pres, cover) == exterior_exponent(pres)


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
        sub = cover.subgroup(kernel, normal_closure=True)
        assert sub.order == result.multiplier.order


def test_cover_examples(bundled):
    heis = schur_cover(bundled["heisenberg_3"].presentation)
    assert heis.cover.order == 243
    assert exterior_exponent(bundled["heisenberg_3"].presentation) == 3
    v4 = schur_cover(bundled["abelian_2_2"].presentation)
    assert v4.cover.order == 8
    assert exterior_exponent(bundled["abelian_2_2"].presentation) == 2
    assert exterior_exponent(bundled["cyclic_9"].presentation) == 1
    assert exterior_exponent(bundled["dihedral_8"].presentation) == 4


def test_method_both_agrees_on_small_groups(bundled):
    for name, entry in bundled.items():
        if entry.order <= 27:
            inv = schur_multiplier(entry.presentation, method="both")
            assert all(t > 1 for t in inv.torsion)


def test_unknown_method(bundled):
    with pytest.raises(MultiplierError):
        schur_multiplier(bundled["cyclic_2"].presentation, method="magic")
