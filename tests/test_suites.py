import dataclasses
import json
from pathlib import Path

from schurlab.catalog import load_bundled
from schurlab.pcgroup import make_presentation, group_of
from schurlab.suites import SUITE_IDS, SUITE_ORDER_CAP, SuiteReport, _centralizing, run_suites

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
    # sweep must yield exactly those (a, h, n), each once.
    for name in ("heisenberg_3", "modular_27", "heisenberg_3_x_c3", "modular_81", "wreath_c3_c3"):
        group = groups(name)
        elems, one = group.elements(), group.identity
        ns = [n for n in range(1, 5) if 3**n <= group.exponent()]  # exponent <= 81
        closures = {}
        reference = set()
        for a in elems:
            for n in ns:
                aq = group.power(a, 3**n)
                for b in elems:
                    if group.commutator(b, aq) == one:
                        pair = frozenset((a, b))
                        if pair not in closures:
                            closures[pair] = closure(group, [a, b])
                        reference.update((a, h, n) for h in closures[pair])
        swept = [(elems[a], elems[b], n) for a, b, n, _ in _centralizing(group)]
        assert len(set(swept)) == len(swept) and set(swept) == reference, name
        assert _by_id(run_suites(group))["L3.6"].passed, name


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
