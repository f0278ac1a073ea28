import dataclasses
from pathlib import Path

import pytest

from schurlab.suites import SuiteReport
from schurlab.verifier import (
    RULE_IDS,
    RuleResult,
    RunConfig,
    evaluate_rules,
    gather_entries,
    profile,
    record_for,
)


@pytest.fixture(scope="module")
def heis_profile(bundled):
    return profile(bundled["heisenberg_3"].presentation)


def test_profile_examples(bundled, heis_profile):
    prof = heis_profile
    assert prof.order == 27 and prof.flags.nilpotency_class == 2
    assert prof.flags.exponent == 3
    assert prof.multiplier.torsion == (3, 3)
    assert prof.exterior_exponent == 3
    assert prof.gamma2_exponent == 3
    assert prof.central_quotient_exponent == 3

    c9 = profile(bundled["cyclic_9"].presentation)
    assert c9.flags.nilpotency_class == 1
    assert c9.multiplier.torsion == ()
    assert c9.exterior_exponent == 1

    d8 = profile(bundled["dihedral_8"].presentation)
    assert d8.multiplier.torsion == (2,)
    assert d8.exterior_exponent == 4


def test_profile_invariants(bundled):
    for name in ("dihedral_16", "modular_27", "wreath_c3_c3", "abelian_9_3"):
        prof = profile(bundled[name].presentation)
        assert prof.exterior_exponent % prof.multiplier.exponent == 0
        assert prof.exterior_exponent % prof.gamma2_exponent == 0


def test_oracle_crosscheck_marking(bundled):
    small = profile(bundled["cyclic_8"].presentation)
    assert small.multiplier_crosscheck == "bar"
    big = profile(bundled["cyclic_64"].presentation)
    assert big.multiplier_crosscheck.startswith("skipped")


def test_rule_examples(bundled, heis_profile):
    rules = evaluate_rules(heis_profile)
    assert rules["R3"].status == "holds"  # class 2 <= 3
    assert rules["R13"].status == "holds"
    assert rules["R4"].status == "not_applicable"
    assert rules["R14"].status == "holds"
    assert rules["OBS"].status == "observed"
    assert "yes" in rules["OBS"].witness

    d8_rules = evaluate_rules(profile(bundled["dihedral_8"].presentation))
    assert d8_rules["R4"].status == "not_applicable"  # p = 2
    assert d8_rules["R1"].status == "holds"  # class 2 = p
    assert d8_rules["R12"].status == "holds"  # e(M)=2 | 2^1 * 4^2
    assert d8_rules["R13"].status == "holds"  # 2 | 2*4

    v4_rules = evaluate_rules(profile(bundled["abelian_2_2"].presentation))
    assert v4_rules["R13"].status == "holds"  # e(M)=2 divides 2*2


def test_r11_needs_a_p_group():
    from schurlab.pcgroup import make_presentation

    c15 = make_presentation("c15", [3, 5], power_words={0: ((1, 1),)})
    rules = evaluate_rules(profile(c15))
    assert rules["R11"] == RuleResult("not_applicable", "needs a p-group")
    assert rules["R12"].status == "holds"


def test_rule_evaluation_is_pure(heis_profile):
    first = evaluate_rules(heis_profile)
    second = evaluate_rules(heis_profile)
    assert first == second


def test_rule_selection(heis_profile):
    selected = evaluate_rules(heis_profile, ["R3", "R13"])
    assert set(selected) == {"R3", "R13", "OBS"}


def test_violation_detected_on_forged_profile(heis_profile):
    forged = dataclasses.replace(heis_profile, exterior_exponent=9)
    rules = evaluate_rules(forged)
    assert rules["R3"].status == "violated"
    assert rules["R3"].witness is not None


def test_missing_exterior_exponent_skips_its_rules(heis_profile):
    forged = dataclasses.replace(
        heis_profile, exterior_exponent=None, exterior_skip_reason="cover enumeration cap: x"
    )
    rules = evaluate_rules(forged)
    assert rules["R3"] == RuleResult("skipped(cover enumeration cap: x)")
    assert rules["R13"].status == "holds"  # e(M) rules do not need the cover
    assert rules["OBS"] == RuleResult("observed", "exterior exponent unavailable")


def test_r14_reports_suites(heis_profile):
    failing = SuiteReport("L3.1", True, False, "power-abelian conclusion failed", "a=x, b=y, n=1")
    forged = dataclasses.replace(heis_profile, suites=heis_profile.suites + (failing,))
    assert evaluate_rules(forged)["R14"] == RuleResult("violated", "L3.1: a=x, b=y, n=1")


def test_wreath_triggers_deep_rules(bundled):
    prof = profile(bundled["wreath_c3_c3"].presentation)
    rules = evaluate_rules(prof)
    assert rules["R1"].status == "holds"  # class 3 = p
    assert rules["R8"].status == "holds"  # m = ceil(4/3) = 2 <= 4
    assert rules["R10"].status == "holds"  # class 3 >= p = 3
    assert rules["R3"].status == "holds"  # class 3 <= p = 3
    assert rules["R14"].status == "holds"


def test_record_shape(bundled):
    rec = record_for(bundled["heisenberg_3"].presentation)
    assert rec["name"] == "heisenberg_3"
    assert rec["multiplier"] == [3, 3]
    assert rec["exterior_exponent"] == 3
    assert set(rec["rules"]) >= set(RULE_IDS)
    for res in rec["rules"].values():
        assert "status" in res and "witness" in res


def test_gather_entries_sorted_and_filtered():
    entries = gather_entries(RunConfig(max_order=27))
    names = [e.name for e in entries]
    assert names == sorted(names)
    assert all(e.order <= 27 for e in entries)


def test_full_run_exit_zero(catalog_run):
    result = catalog_run(1)
    assert result.exit_code == 0
    assert len(result.records) == 49
    for rule, counts in result.summary.items():
        assert counts["violated"] == 0


def test_r4_vacuous_with_message(catalog_run):
    result = catalog_run(1)
    assert result.summary["R4"]["vacuous"] == 1
    text = result.render("text")
    assert "R4" in text and "vacuous" in text


def test_non_vacuity(catalog_run):
    result = catalog_run(1)
    for rule in RULE_IDS:
        if rule == "R4":
            continue
        assert result.summary[rule]["holds"] >= 1, rule


def test_parallel_serial_equivalence(catalog_run):
    serial = catalog_run(1)
    parallel = catalog_run(2)
    assert serial.render("json") == parallel.render("json")


def test_pool_has_no_more_workers_than_groups(monkeypatch):
    from schurlab import verifier

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(verifier, "ProcessPoolExecutor", SerialPool)
    config = RunConfig(jobs=10_000, max_order=4)
    result = verifier.run(config)
    assert started == [len(gather_entries(config))] == [len(result.records)]


def test_group_error_is_reported_and_the_run_goes_on(monkeypatch):
    from schurlab import verifier
    from schurlab.pcgroup import PcError

    real_profile, real_rules = verifier.profile, verifier.evaluate_rules

    def failing_profile(pres, oracle_cap):
        if pres.name == "cyclic_2":
            raise PcError("cyclic_2: forged failure, for the test")
        return real_profile(pres, oracle_cap=oracle_cap)

    monkeypatch.setattr(verifier, "profile", failing_profile)
    config = RunConfig(max_order=4)
    result = verifier.run(config)
    assert result.exit_code == 4
    assert len(result.records) == len(gather_entries(config)) > 1
    error = {"name": "cyclic_2", "order": 2, "status": "error",
             "error": "cyclic_2: forged failure, for the test"}
    assert error in result.records
    assert all("rules" in rec for rec in result.records if rec != error)
    text = result.render("text").splitlines()
    assert "cyclic_2 (order 2): error: cyclic_2: forged failure, for the test" in text
    csv = result.render("csv").splitlines()
    assert [line for line in csv if line.startswith("cyclic_2,")] == [
        "cyclic_2,2,,error,cyclic_2: forged failure; for the test"
    ]
    assert verifier.run(dataclasses.replace(config, strict=True, oracle_cap=0)).exit_code == 4

    # a genuine violation still exits 1
    def violating_rules(prof, selection=None):
        return {**real_rules(prof, selection), "R12": RuleResult("violated", "forged")}

    monkeypatch.setattr(verifier, "evaluate_rules", violating_rules)
    assert verifier.run(config).exit_code == 1


def test_render_formats(catalog_run):
    result = catalog_run(1)
    csv = result.render("csv")
    assert csv.splitlines()[0] == "group,order,rule,status,witness"
    js = result.render("json")
    assert '"groups"' in js and '"summary"' in js


def test_csv_keeps_five_fields_for_a_name_with_a_comma(bundled, tmp_path, monkeypatch):
    import csv

    from schurlab import verifier
    from schurlab.pcgroup import PcError

    path = tmp_path / "comma.cat"
    pres = dataclasses.replace(bundled["cyclic_3"].presentation, name="c3,x")
    path.write_text(pres.to_catalog_text())
    config = RunConfig(catalog_paths=(str(path),), include_bundled=False)
    rows = list(csv.reader(verifier.run(config).render("csv").splitlines()))
    assert rows[0] == ["group", "order", "rule", "status", "witness"]
    assert len(rows) > 1 and all(len(row) == 5 for row in rows)
    assert {row[0] for row in rows[1:]} == {"c3,x"}

    def failing_profile(pres, oracle_cap):
        raise PcError(f"{pres.name}: forged failure, for the test")

    monkeypatch.setattr(verifier, "profile", failing_profile)
    rows = list(csv.reader(verifier.run(config).render("csv").splitlines()))
    assert rows[1:] == [["c3,x", "3", "", "error", "c3;x: forged failure; for the test"]]


def test_profile_does_each_piece_of_work_once(bundled, tmp_path, monkeypatch):
    from schurlab import catalog, multiplier, pcgroup

    counts = {"tails_matrix": 0, "PcGroup": 0}
    checked, collectors, overlap_runs = [], [], []  # presentations, in call order
    tails_matrix = multiplier.tails_matrix
    pcgroup_init = pcgroup.PcGroup.__init__
    check_consistency = pcgroup.check_consistency
    collector_init = pcgroup.Collector.__init__
    overlap_tests = pcgroup.overlap_tests

    def counted_tails_matrix(*args, **kwargs):
        counts["tails_matrix"] += 1
        return tails_matrix(*args, **kwargs)

    def counted_init(self, *args, **kwargs):
        counts["PcGroup"] += 1
        pcgroup_init(self, *args, **kwargs)

    def recorded_check(pres):
        checked.append(pres)
        return check_consistency(pres)

    def recorded_collector(self, pres):
        collectors.append(pres)
        collector_init(self, pres)

    def recorded_overlaps(collector):
        overlap_runs.append(collector.pres)
        return overlap_tests(collector)

    monkeypatch.setattr(multiplier, "tails_matrix", counted_tails_matrix)
    monkeypatch.setattr(pcgroup.PcGroup, "__init__", counted_init)
    monkeypatch.setattr(pcgroup, "check_consistency", recorded_check)
    monkeypatch.setattr(pcgroup.Collector, "__init__", recorded_collector)
    monkeypatch.setattr(pcgroup, "overlap_tests", recorded_overlaps)

    # fresh names keep the groups out of group_of's cache; heisenberg_3 runs
    # the bar oracle, cyclic_125 is above its cap
    names = ("heisenberg_3", "cyclic_125")
    path = tmp_path / "fresh.cat"
    path.write_text("".join(
        dataclasses.replace(bundled[name].presentation, name=f"fresh_{name}").to_catalog_text()
        for name in names
    ))
    entries = catalog.import_file(str(path))
    assert len(checked) == len(names)
    for entry in entries:
        counts.update(tails_matrix=0, PcGroup=0)
        prof = profile(entry.presentation)
        assert counts == {"tails_matrix": 1, "PcGroup": 2}, entry.name  # G and its cover
        assert checked[-1].name == f"{entry.name}.cover"
    assert prof.multiplier_crosscheck.startswith("skipped")
    assert len(checked) == 2 * len(names)
    assert len(set(checked)) == len(checked)  # no presentation checked twice
    # one collector and one tailed overlap run per presentation object, shared
    # by the consistency check, PcGroup and the tails matrix
    assert list(map(id, collectors)) == list(map(id, overlap_runs)) == list(map(id, checked))


def test_cover_over_enumeration_cap_keeps_multiplier(bundled, monkeypatch):
    from schurlab import verifier
    from schurlab.pcgroup import EnumerationCapExceeded

    def capped_exponent(pres, cover_result):
        raise EnumerationCapExceeded(f"{pres.name}.cover: subgroup order exceeds cap")

    monkeypatch.setattr(verifier, "exterior_exponent", capped_exponent)
    prof = profile(bundled["heisenberg_3"].presentation, oracle_cap=0)
    assert prof.multiplier.torsion == (3, 3)
    assert prof.exterior_exponent is None
    assert prof.exterior_skip_reason.startswith("cover enumeration cap")


def test_bundle_json_matches_reference(catalog_run):
    reference = Path(__file__).parents[1] / "perfbench" / "reference" / "verify_bundle.json"
    assert catalog_run(1).render("json") + "\n" == reference.read_text()


def test_identities_output_matches_reference(capsys):
    from schurlab import cli

    reference = Path(__file__).parents[1] / "perfbench" / "reference" / "identities.txt"
    assert cli.main(["identities"]) == 0
    assert capsys.readouterr().out == reference.read_text()
