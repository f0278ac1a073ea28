import dataclasses
import json
from pathlib import Path

from schurlab.catalog import load_bundled
from schurlab.pcgroup import make_presentation, group_of
from schurlab.suites import (
    SUITE_IDS,
    SUITE_ORDER_CAP,
    SuiteReport,
    _centralizing,
    _classes,
    run_suites,
)

GOLDEN = Path(__file__).parent / "data" / "suite_reports.json"


def _by_id(reports):
    return {r.suite_id: r for r in reports}


def test_all_suites_pass_on_bundle(bundled, groups):
    seen_applicable = {sid: 0 for sid in SUITE_IDS}
    for name in bundled:
        group = groups(name)
        reports = _by_id(run_suites(group))
        assert set(reports) == set(SUITE_IDS)
        for sid, rep in reports.items():
            if rep.applicable:
                seen_applicable[sid] += 1
                assert rep.passed, f"{name}/{sid}: {rep.counterexample}"
            else:
                assert rep.passed is None
    # every suite exercised by at least one bundled group
    assert all(count > 0 for count in seen_applicable.values()), seen_applicable


def test_regular_suites_skip_irregular_groups(groups):
    reports = _by_id(run_suites(groups("dihedral_16")))
    assert not reports["L2.15"].applicable
    assert not reports["L3.1"].applicable
    assert not reports["T5.4"].applicable


def test_class_p_suites_target_correct_groups(groups):
    q8 = _by_id(run_suites(groups("quaternion_8")))
    assert q8["L3.2"].applicable and q8["L3.5"].applicable
    heis = _by_id(run_suites(groups("heisenberg_3")))  # class 2 < p = 3
    assert not heis["L3.2"].applicable
    wreath = _by_id(run_suites(groups("wreath_c3_c3")))  # class 3 = p
    assert wreath["L3.2"].applicable and wreath["L3.2"].passed


def test_l36_covers_all_small_3_groups(bundled, groups):
    for name, entry in bundled.items():
        if entry.presentation.prime != 3 or entry.order > 81:
            continue
        reports = _by_id(run_suites(groups(name)))
        assert reports["L3.6"].applicable, name
        assert reports["L3.6"].passed, name


def test_centralizing_sweep_matches_two_generator_subgroups(groups, closure):
    # L3.6 quantifies over h in <a,b> whenever [b, a^(3^n)] = 1; the shared
    # sweep must yield exactly those (a, h, n) with a in the class
    # transversal, each once, weighted by the size of a's class.
    for name in ("heisenberg_3", "modular_27", "heisenberg_3_x_c3", "modular_81", "wreath_c3_c3"):
        group = groups(name)
        elems, one, rows = group.elements(), group.identity, group.rows
        ns = [n for n in range(1, 5) if 3**n <= group.exponent()]  # exponent <= 81
        closures = {}
        reference = set()
        for a in (elems[x] for x, _ in _classes(group)):
            for n in ns:
                aq = group.power(a, 3**n)
                for b in elems:
                    if group.commutator(b, aq) == one:
                        pair = frozenset((a, b))
                        if pair not in closures:
                            closures[pair] = closure(group, [a, b])
                        reference.update((a, h, n) for h in closures[pair])
        swept, weights = [], {}
        for a, weight, b, n, _ in _centralizing(group):
            swept.append((elems[a], elems[b], n))
            weights[a] = weight
        assert len(set(swept)) == len(swept) and set(swept) == reference, name
        for a, weight in weights.items():  # |a^G| = |G| / |C_G(a)|
            centralizer = sum(rows[a][x] == rows[x][a] for x in range(group.order))
            assert weight * centralizer == group.order, (name, a)
        assert _by_id(run_suites(group))["L3.6"].passed, name


def test_classes_are_the_conjugacy_classes(bundled, groups):
    # The representatives are the least elements of the classes {g^-1 a g},
    # and there are as many classes as commuting pairs over |G| (Burnside).
    counts = {}
    for name, entry in bundled.items():
        if entry.order > SUITE_ORDER_CAP:
            continue
        group = groups(name)
        rows, inv, order = group.rows, group.inverses, group.order
        reference = {}
        for a in range(order):
            cls = {rows[rows[inv[g]][a]][g] for g in range(order)}
            reference[min(cls)] = len(cls)
        classes = _classes(group)
        assert classes == sorted(reference.items()), name
        assert sum(size for _, size in classes) == order, name
        commuting = sum(rows[x][y] == rows[y][x] for x in range(order) for y in range(order))
        assert len(classes) * order == commuting, name
        counts[name] = len(classes)
    assert counts["dihedral_8"] == counts["quaternion_8"] == 5
    assert counts["heisenberg_3"] == 11 and counts["wreath_c3_c3"] == 17


def test_abelian_closed_form_matches_the_sweep(bundled, groups):
    # Forging class 2 on an abelian group forces the sweeps that the closed
    # form skips; the reports must not change.
    abelian = 0
    for name, entry in bundled.items():
        if entry.order > SUITE_ORDER_CAP:
            continue
        group = groups(name)
        flags = group.classify()
        if flags.nilpotency_class > 1:
            continue
        abelian += 1
        forged = dataclasses.replace(flags, nilpotency_class=2)
        closed, swept = _by_id(run_suites(group, flags)), _by_id(run_suites(group, forged))
        for sid in ("L2.15", "L3.1"):
            assert closed[sid].applicable and closed[sid] == swept[sid], (name, sid)
    assert abelian > 0


def test_suite_detects_violations(bundled):
    # Forging the regular flag on D_8 must make L2.15 fail: two reflections
    # have order 2 but their product has order 4, violating part (iii).
    group = group_of(bundled["dihedral_8"].presentation)
    forged = dataclasses.replace(group.classify(), is_regular=True)  # D_8 is not regular
    reports = _by_id(run_suites(group, forged))
    report = reports["L2.15"]
    assert report.applicable and not report.passed
    assert report.counterexample is not None
    # L3.1 fails first at the first non-central a: a and b are reflections,
    # so [b, a^2] = 1 trivially, but ab has order 4 and (ab)^2 != a^2 b^2.
    assert reports["L3.1"] == SuiteReport(
        "L3.1", True, False, "power-abelian conclusion failed", "a=(0, 1, 0), b=(1, 0, 0), n=1"
    )


def suite_report_table() -> dict:
    """Every report field of every bundled group within the suite cap, under
    its real flags and with ``is_regular`` and class = p forged, so that the
    failing sweeps and their counterexamples are pinned too.

    ``tests/data/suite_reports.json`` is this table; rewrite it with
    ``PYTHONPATH=src:tests python -c "import test_suites as t; t.write_golden()"``
    only when a suite's output is meant to change.
    """
    table = {}
    for entry in load_bundled():
        if entry.order > SUITE_ORDER_CAP:
            continue
        group = group_of(entry.presentation)
        flags = group.classify()
        variants = {
            "real": flags,
            "regular": dataclasses.replace(flags, is_regular=True),
            "class_p": dataclasses.replace(flags, nilpotency_class=entry.presentation.prime),
        }
        table[entry.name] = {
            kind: [dataclasses.asdict(r) for r in run_suites(group, forged)]
            for kind, forged in variants.items()
        }
    return table


def write_golden() -> None:
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(suite_report_table(), indent=1) + "\n")


def test_suite_reports_match_golden():
    assert suite_report_table() == json.loads(GOLDEN.read_text())
