"""Tests of the benchmark itself (not of schurlab).

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import dataclasses
import json

import pytest

import layers
import run
import workloads
from tracer import Span, Tracer, self_times

BENCHMARK = run.BENCHMARK


@pytest.fixture(scope="module")
def checkout():
    return run.Checkout()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_and_seeds_differ(checkout, workload):
    def sample(seed):
        return workloads.make_sample(workload, seed, checkout.orders)

    assert sample(7) == sample(7)
    assert len({(s.items, s.labels) for s in map(sample, range(1, 6))}) > 1
    for s in map(sample, range(1, 6)):
        assert len(set(s.items)) == len(s.items)
        if s.kind == "verify":
            assert set(s.items) <= set(checkout.records)
        else:
            assert set(s.items) == set(layers.LEMMA_IDS) == set(checkout.lemma_lines)


def test_sample_work_does_not_depend_on_the_seed(checkout):
    # the seed only orders fixed sets
    for workload in workloads.WORKLOADS:
        sets = {frozenset(workloads.make_sample(workload, seed, checkout.orders).items)
                for seed in range(1, 8)}
        assert len(sets) == 1
    assert set(workloads.make_sample("structure", 1, checkout.orders).items) == set(
        workloads.STRUCTURE)


@pytest.mark.parametrize("workload", ["crosscheck", "structure"])
def test_sampled_presentations_round_trip_to_reference_records(checkout, tmp_path, workload):
    from schurlab.catalog import import_file
    from schurlab.verifier import record_for

    sample = workloads.make_sample(workload, 3, checkout.orders)
    path = tmp_path / "sample.cat"
    path.write_text(workloads.catalog_text(sample, checkout.presentations))
    entries = import_file(str(path))
    assert [e.name for e in entries] == list(sample.labels)
    for entry, name in zip(entries, sample.items):
        pres = checkout.presentations[name]
        assert entry.presentation == dataclasses.replace(pres, name=entry.name)
        # the order-16 groups take seconds in the oracle; structure's take
        # about 2 s together
        if pres.order <= 9 or workload == "structure":
            rec = record_for(entry.presentation)
            assert dict(rec, name=name) == checkout.records[name]


def _rendered(sample, checkout):
    groups = [dict(checkout.records[n], name=lab) for n, lab in zip(sample.items, sample.labels)]
    return {"output": json.dumps({"groups": groups}), "error": None}


def test_failures_are_counted_per_item(checkout):
    sample = workloads.make_sample("structure", 1, checkout.orders)
    good = _rendered(sample, checkout)
    assert run.count_failures(sample, good, checkout) == 0

    doc = json.loads(good["output"])
    doc["groups"][0]["exterior_exponent"] += 1
    del doc["groups"][1]
    bad = {"output": json.dumps(doc), "error": None}
    assert run.count_failures(sample, bad, checkout) == 2

    raised = {"output": None, "error": "MultiplierError: method disagreement"}
    assert run.count_failures(sample, raised, checkout) == len(sample.items)

    lemmas = workloads.make_sample("identities", 1, checkout.orders)
    lines = [checkout.lemma_lines[i] for i in lemmas.items]
    assert run.count_failures(lemmas, {"output": lines}, checkout) == 0
    lines[3] = lines[3].replace("pass", "FAIL")
    assert run.count_failures(lemmas, {"output": lines}, checkout) == 1


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("root", 0.0, 10.0, hot_s=0.5),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 5.0, parent=0),  # overlaps a: together they cover [1, 5]
        Span("leaf", 1.5, 2.5, parent=1),
        Span("c", 7.0, 8.0, parent=0, hot_s=0.25),
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 1 - 0.5, 2 - 1, 3, 1, 1 - 0.25])


def test_fastest_slices_takes_each_slice_at_its_fastest():
    passes = [
        {"marks": [1.0, 3.0], "wall_s": 4.0},  # slices 1, 2, 1
        {"marks": [2.0, 3.0], "wall_s": 5.0},  # slices 2, 1, 2
        {"marks": [0.5], "wall_s": 9.0},  # cut differently: left out
    ]
    wall, used = run.fastest_slices(passes)
    assert wall == pytest.approx(1 + 1 + 1)
    assert used == (3, 2)


def test_marks_stamp_every_nth_call_and_restore(checkout):
    from schurlab import intlinalg, verifier

    add = intlinalg.LatticeBasis.add
    record_for = verifier.record_for
    groups: list[float] = []
    adds: list[float] = []
    tracer = Tracer("schurlab")
    tracer.mark(verifier, "record_for", 1, groups)
    tracer.mark(intlinalg.LatticeBasis, "add", 3, adds)
    try:
        basis = intlinalg.LatticeBasis(7)
        for i in range(7):
            basis.add({i: 2})
        assert len(adds) == 2 and adds == sorted(adds)
        rec = verifier.record_for(checkout.presentations["cyclic_2"])
        assert len(groups) == 1 and groups[0] > adds[1]
    finally:
        tracer.uninstall()
    assert intlinalg.LatticeBasis.add is add and verifier.record_for is record_for
    assert rec == checkout.records["cyclic_2"]


def test_span_totals_count_recursion_once():
    tracer = Tracer("none")
    tracer.spans[:] = [
        Span("f", 0.0, 4.0),
        Span("f", 1.0, 2.0, parent=0),
        Span("g", 5.0, 6.0),
    ]
    totals = tracer.span_totals()
    assert totals["f"]["calls"] == 2
    assert totals["f"]["s"] == pytest.approx(4.0)
    assert totals["f"]["self_s"] == pytest.approx(3.0 + 1.0)
    assert totals["g"]["max_s"] == pytest.approx(1.0)


def test_tracer_wraps_every_import_site_and_restores_them(checkout):
    import schurlab
    from schurlab import intlinalg, multiplier, verifier

    original = multiplier.bar_homology
    add = intlinalg.LatticeBasis.add
    tracer = Tracer("schurlab")
    layers.instrument(tracer)
    try:
        assert schurlab.bar_homology is multiplier.bar_homology is not original
        rec = verifier.record_for(checkout.presentations["quaternion_8"])
    finally:
        tracer.uninstall()
    assert multiplier.bar_homology is original and schurlab.bar_homology is original
    assert intlinalg.LatticeBasis.add is add
    assert rec == checkout.records["quaternion_8"]

    summary = layers.trace_summary(tracer)
    metrics, bases = layers.layer_metrics(summary, 1.0, 1.0, 1.0, 1)
    assert [name for name, _ in layers.METRICS if name != "trace.bypass_ok"] == list(metrics)
    assert metrics["multiplier.bar_homology.calls"] == 1
    assert metrics["intlinalg.LatticeBasis.add.calls"] > 0
    assert metrics["pcgroup.PcGroup.multiply.memo_misses"] <= metrics["pcgroup.Collector.collect.calls"]
    assert {s.trace_id for s in tracer.spans} == {"quaternion_8"}
    assert bases["pcgroup.PcGroup.multiply.memo_miss_ratio"].startswith("memo_misses/calls = ")


def test_benchmark_json_lists_the_reported_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(layers.METRICS)
    assert set(layers.BYPASS) == set(workloads.WORKLOADS)
