import pytest

from schurlab.multiplier import (
    DEFAULT_ORACLE_CAP,
    ORACLE_HARD_CAP,
    AbelianInvariants,
    MultiplierError,
    OracleCapExceeded,
    bar_homology,
    exterior_exponent,
    multiplication_table,
    schur_cover,
    schur_multiplier,
)
from schurlab.pcgroup import PcGroup, group_of


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
