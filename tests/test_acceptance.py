"""Acceptance criteria, one test per criterion.

Each test asserts the criterion exactly (including the stated runtime budget
where one is given); the terminal summary prints one PASS/FAIL line per
criterion.
"""
import json
import math
import time

import pytest

from schurlab.bounds import emit_tables, table_i_rows, table_ii_rows
from schurlab.commexpr import parse_expr
from schurlab.freenil import fit_binomial, verify_identity
from schurlab.identities import (
    L41_I_RHS,
    alpha,
    collection_exponents_class5,
    er_chain,
)
from schurlab.multiplier import (
    bar_homology,
    exterior_exponent,
    multiplication_table,
    schur_cover,
    schur_multiplier,
)
from schurlab.pcgroup import PcGroup, group_of
from schurlab.suites import run_suites
from schurlab.verifier import RULE_IDS


def test_criterion_01_alpha_table():
    start = time.monotonic()
    assert [alpha(2, 2), alpha(2, 3), alpha(2, 4)] == [2, 6, 14]
    assert [alpha(3, 3), alpha(3, 4), alpha(4, 4)] == [6, 36, 24]
    for n in range(3, 13):
        for m in range(3, n + 1):
            rhs = sum(math.comb(n, k) * alpha(m - 1, k) for k in range(m - 1, n))
            assert alpha(m, n) == rhs
    assert time.monotonic() - start < 1.0


def test_criterion_02_er_chain():
    start = time.monotonic()
    assert er_chain(5) == [
        (1, 1, 1, 1),
        (0, 2, 6, 14),
        (0, 0, 6, 36),
        (0, 0, 0, 24),
    ]
    for p in (3, 5, 7, 11):
        assert er_chain(p)[-1][-1] == math.factorial(p - 1)
    assert time.monotonic() - start < 1.0


def test_criterion_03_collection_identities(check_lemma):
    start = time.monotonic()
    for part in ("L4.1i", "L4.1ii", "L4.1iii"):
        report = check_lemma(part)
        assert report.passed, f"{part}: {report.counterexample}"
    # fitted binomial exponents reproduce the published list term-for-term
    expected = {
        "[[b,a],a,b,a]": {3: 6, 4: 18, 5: 12},
        "[[b,a],b,b,a]": {3: 1, 4: 7, 5: 6},
        "[a,a,a,b,a]": {4: 3, 5: 4},
        "[a,a,b,b,a]": {3: 1, 4: 6, 5: 6},
        "[a,b,b,b,a]": {4: 3, 5: 4},
        "[b,b,b,b,a]": {5: 1},
        "[a,a,b,a]": {3: 2, 4: 3},
        "[a,b,b,a]": {3: 2, 4: 3},
        "[b,b,b,a]": {4: 1},
        "[a,b,a]": {2: 1, 3: 2},
        "[b,b,a]": {3: 1},
        "[b,a]": {2: 1},
    }
    for name, coeffs in expected.items():
        poly = fit_binomial(
            lambda n, nm=name: collection_exponents_class5(n)[nm], 5
        )
        assert poly.as_dict() == coeffs, name
    # Remark 2.13: the [_t b, a] exponent is C(n, t+1) for t <= 4
    r213 = check_lemma("R2.13")
    assert r213.passed
    assert time.monotonic() - start < 120.0


def test_criterion_04_lemma_suite(check_lemma):
    start = time.monotonic()
    for lemma_id in ("L2.7", "L2.8", "C2.9", "L2.10i", "L2.10ii", "L2.12"):
        report = check_lemma(lemma_id)
        assert report.passed, f"{lemma_id}: {report.counterexample}"
    # perturbed-coefficient control: one exponent changed must fail
    perturbed = L41_I_RHS.replace("18C(n,4)", "17C(n,4)")
    assert perturbed != L41_I_RHS
    control = verify_identity(
        parse_expr("(a b)^n"), parse_expr(perturbed), 2, 5, range(1, 8)
    )
    assert not control.passed
    assert time.monotonic() - start < 120.0


def test_criterion_05_oracle_equivalence(bundled):
    start = time.monotonic()
    checked = 0
    for name, entry in sorted(bundled.items()):
        if entry.order > 32:
            continue
        pres = entry.presentation
        tails = schur_multiplier(pres, method="tails")
        bar = schur_multiplier(pres, method="bar")
        assert tails == bar, name
        group = group_of(pres)
        h1 = bar_homology(multiplication_table(group), degree=1)
        assert h1.torsion == group.abelianization_invariants(), name
        checked += 1
    assert checked >= 20
    assert time.monotonic() - start < 300.0


def test_criterion_06_known_multipliers(bundled):
    expected = {
        "cyclic_16": (),
        "cyclic_27": (),
        "cyclic_125": (),
        "abelian_2_2": (2,),
        "abelian_3_3": (3,),
        "dihedral_8": (2,),
        "quaternion_8": (),
        "heisenberg_3": (3, 3),
    }
    for name, torsion in expected.items():
        assert schur_multiplier(bundled[name].presentation).torsion == torsion, name


def test_criterion_07_cover_laws(bundled):
    for name, entry in sorted(bundled.items()):
        pres = entry.presentation
        result = schur_cover(pres)  # consistency self-checked inside
        cover = PcGroup(result.cover)
        group = group_of(pres)
        assert cover.order == group.order * result.multiplier.order, name
        center = cover.center()
        kernel = [
            cover.normalize([(g, e) for g, e in enumerate(w)])
            for w in result.kernel_generators
        ]
        gamma2_elems = cover.subgroup(
            [
                cover.commutator(u, v)
                for u in cover.generators()
                for v in cover.generators()
            ],
            cover.generators(),
        ).elements
        for k in kernel:
            assert k in center, name
            assert k in gamma2_elems, name
        ext = exterior_exponent(pres, result)
        assert ext % result.multiplier.exponent == 0, name
        gamma2_g = group.lower_central_series()[1] if group.nilpotency_class() > 1 else None
        if gamma2_g is not None:
            assert ext % gamma2_g.exponent() == 0, name


def test_criterion_08_theorem_rules(catalog_run):
    result = catalog_run(1)
    assert result.exit_code == 0
    for rule in RULE_IDS:
        assert result.summary[rule]["violated"] == 0, rule
    for rule in ("R1", "R2", "R3", "R5", "R6", "R7", "R9", "R10", "R11", "R12", "R13"):
        assert result.summary[rule]["holds"] >= 1, rule
    # R4 is vacuous on the bundle and says so explicitly
    assert result.summary["R4"]["vacuous"] == 1
    assert "vacuous" in result.render("text")


def test_criterion_09_tables():
    expected_i = {
        3: (2, 2, 1),
        4: (2, 4, 1),
        5: (3, 4, 1),
        6: (3, 4, 2),
        17: (9, 8, 2),
        53: (27, 10, 3),
        161: (81, 14, 4),
    }
    for c, ellis, moravec, thm61 in table_i_rows():
        assert (ellis, moravec, thm61) == expected_i[c]
    rows = {(r["c"], r["p"], r["n"]): r for r in table_ii_rows()}
    assert rows[(5, 3, 1)]["thm65_formula"] == 2
    assert rows[(5, 3, 2)]["thm65_formula"] == 4
    assert rows[(7, 7, 1)]["thm65_formula"] == 1
    assert rows[(15, 13, 2)]["thm65_formula"] == 4
    for key in ((24, 5, 1), (168, 13, 1)):
        assert rows[key]["discrepancy"]
        assert rows[key]["thm65_formula"] == 3 and rows[key]["thm65_printed"] == 2
    text = emit_tables()
    assert text.count("DISCREPANCY") == 2


def test_criterion_10_structural_suites(bundled):
    start = time.monotonic()
    l215 = l36 = t54 = 0
    for name, entry in sorted(bundled.items()):
        group = group_of(entry.presentation)
        reports = {r.suite_id: r for r in run_suites(group)}
        flags = group.classify()
        if flags.is_regular is True and entry.order <= 81:
            assert reports["L2.15"].applicable and reports["L2.15"].passed, name
            l215 += 1
        if entry.presentation.prime == 3 and flags.nilpotency_class <= 4 and entry.order <= 81:
            assert reports["L3.6"].applicable and reports["L3.6"].passed, name
            l36 += 1
        if reports["T5.4"].applicable:
            assert reports["T5.4"].passed, name
            t54 += 1
    assert l215 >= 10 and l36 >= 10 and t54 >= 10
    assert time.monotonic() - start < 600.0


def test_criterion_11_determinism(catalog_run):
    serial = catalog_run(1).render("json")
    parallel = catalog_run(2).render("json")
    assert serial == parallel
    json.loads(serial)  # well-formed
