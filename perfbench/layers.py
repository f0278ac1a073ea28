"""Which schurlab calls a traced pass wraps, and the per-layer metrics read
from the trace.

Layers are named by module. Each metric below moves an end-to-end metric on a
named workload (see ``run.py``); the comment on each group says which.
``bounds`` and ``cli`` are not wrapped: ``bounds`` runs in microseconds, and
``cli`` is a thin argparse layer over ``verifier.run``, which is wrapped.
"""
from __future__ import annotations

from tracer import Tracer

LEMMA_IDS = (
    "L2.7", "L2.8", "C2.9", "L2.10i", "L2.10ii", "L2.12",
    "R2.13", "L3.8", "L4.1i", "L4.1ii", "L4.1iii", "T3.9chain",
)

# Share of the traced wall the bar oracle must take on ``crosscheck``, so that
# the workload keeps measuring the oracle.
BAR_SHARE_FLOOR = 0.90
# Pool utilisation structure's groups must show at jobs = nproc: a pool that
# runs its groups one after another reads 1/jobs.
POOL_BUSY_FLOOR = 0.6

# What each workload must (not) do, checked on the traced pass; a failed check
# means the workload no longer measures what it was built for.
BYPASS = {
    "crosscheck": (
        f"multiplier.bar_homology.wall_share >= {BAR_SHARE_FLOOR}",
        lambda m: m["multiplier.bar_homology.wall_share"] >= BAR_SHARE_FLOOR,
    ),
    "structure": (
        f"multiplier.bar_homology.calls == 0 and verifier.run.busy_frac >= {POOL_BUSY_FLOOR}",
        lambda m: m["multiplier.bar_homology.calls"] == 0
        and m["verifier.run.busy_frac"] >= POOL_BUSY_FLOOR,
    ),
    "identities": (
        "multiplier.bar_homology.calls == 0 and pcgroup.PcGroup.init.calls == 0",
        lambda m: m["multiplier.bar_homology.calls"] == 0
        and m["pcgroup.PcGroup.init.calls"] == 0,
    ),
}

# (name, unit) of every per-layer metric, in report order. A traced run of any
# workload reports all of them; a layer the workload does not reach reads 0.
METRICS: tuple[tuple[str, str], ...] = (
    # setup_s on every workload, wall_s on structure: consistency is checked
    # at catalog load, in PcGroup.__init__ and again inside tails_matrix.
    ("catalog.load_bundled.s", "s"),
    ("catalog.import_file.s", "s"),
    ("pcgroup.check_consistency.calls", "count"),
    ("pcgroup.check_consistency.s", "s"),
    ("pcgroup.PcGroup.init.calls", "count"),
    # wall_s on structure
    ("pcgroup.PcGroup.classify.s", "s"),
    ("suites.run_suites.s", "s"),
    # wall_s on structure and crosscheck: the memoized product and the
    # table-building uses of the collector
    ("pcgroup.Collector.collect.calls", "count"),
    ("pcgroup.PcGroup.multiply.calls", "count"),
    ("pcgroup.PcGroup.multiply.memo_misses", "count"),
    ("pcgroup.PcGroup.multiply.memo_miss_ratio", "ratio"),
    # wall_s and peak_rss_mib on crosscheck: fill-in of the bar oracle's
    # lattice; calls stay fixed for a given sample, nnz is the fill
    ("intlinalg.LatticeBasis.add.calls", "count"),
    ("intlinalg.LatticeBasis.add.s", "s"),
    ("intlinalg.LatticeBasis.basis_nnz", "count"),
    # wall_s on structure: the tails matrix is built and eliminated twice
    ("intlinalg.snf.calls", "count"),
    ("intlinalg.snf.s", "s"),
    ("multiplier.tails_matrix.calls", "count"),
    ("multiplier.tails_matrix.s", "s"),
    # wall_s on crosscheck
    ("multiplier.multiplication_table.s", "s"),
    ("multiplier.bar_homology.calls", "count"),
    ("multiplier.bar_homology.s", "s"),
    ("multiplier.bar_homology.self_s", "s"),
    ("multiplier.bar_homology.wall_share", "ratio"),
    # wall_s on structure
    ("multiplier.schur_cover.s", "s"),
    ("multiplier.exterior_exponent.self_s", "s"),
    # wall_s on every verify workload
    ("verifier.profile.s", "s"),
    ("verifier.evaluate_rules.s", "s"),
    ("verifier.record_for.sum_s", "s"),
    ("verifier.record_for.max_s", "s"),
    # wall_s of verify at jobs = nproc, from an untraced pool pass of the same
    # inputs: pool utilisation and the group that bounds it
    ("verifier.run.busy_frac", "ratio"),
    ("verifier.run.critical_group_s", "s"),
    # wall_s on identities
    *((f"identities.{lemma}.s", "s") for lemma in LEMMA_IDS),
    ("freenil.HallBasis.calls", "count"),
    ("freenil.HallBasis.s", "s"),
    ("freenil.normal_form.calls", "count"),
    ("freenil.TruncatedSeries.mul.calls", "count"),
    ("commexpr.parse_expr.calls", "count"),
    ("intlinalg.IntegerSolver.solve.calls", "count"),
    # the trace itself
    ("trace.untraced_wall_s", "s"),
    ("trace.traced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.bypass_ok", "bool"),
)


def instrument(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported schurlab."""
    from schurlab import catalog, commexpr, freenil, identities, intlinalg
    from schurlab import multiplier, pcgroup, suites, verifier

    span = tracer.span
    span(catalog, "load_bundled", "catalog.load_bundled")
    span(catalog, "import_file", "catalog.import_file")
    span(pcgroup, "check_consistency", "pcgroup.check_consistency")
    span(pcgroup.PcGroup, "classify", "pcgroup.PcGroup.classify")
    span(suites, "run_suites", "suites.run_suites")
    span(intlinalg, "snf", "intlinalg.snf")
    for name in ("tails_matrix", "multiplication_table", "bar_homology",
                 "schur_cover", "exterior_exponent"):
        span(multiplier, name, f"multiplier.{name}")
    span(verifier, "run", "verifier.run")
    span(verifier, "record_for", "verifier.record_for",
         trace_id=lambda pres, *a, **k: pres.name)
    span(verifier, "profile", "verifier.profile")
    span(verifier, "evaluate_rules", "verifier.evaluate_rules")
    span(identities, "verify_collection_lemma", "identities.verify_collection_lemma",
         trace_id=lambda lemma_id, *a, **k: lemma_id)
    span(freenil.HallBasis, "__init__", "freenil.HallBasis")

    tracer.timed(intlinalg.LatticeBasis, "add", "intlinalg.LatticeBasis.add")
    tracer.tally(intlinalg.LatticeBasis, "quotient_invariants",
                 "intlinalg.LatticeBasis.basis_nnz",
                 lambda basis: sum(len(v) for v in basis.pivots.values()))

    count = tracer.count
    count(pcgroup.PcGroup, "__init__", "pcgroup.PcGroup.init")
    count(pcgroup.Collector, "collect", "pcgroup.Collector.collect")
    count(pcgroup.PcGroup, "multiply", "pcgroup.PcGroup.multiply",
          nested=("pcgroup.Collector.collect", "pcgroup.PcGroup.multiply.memo_misses"))
    count(freenil, "normal_form", "freenil.normal_form")
    count(freenil.TruncatedSeries, "__mul__", "freenil.TruncatedSeries.mul")
    count(commexpr, "parse_expr", "commexpr.parse_expr")
    count(intlinalg.IntegerSolver, "solve", "intlinalg.IntegerSolver.solve")


def trace_summary(tracer: Tracer) -> dict:
    """The raw numbers of one traced pass, in a JSON-ready form."""
    totals = tracer.span_totals()
    lemma_s = {lemma: 0.0 for lemma in LEMMA_IDS}
    for s in tracer.spans:
        if s.name == "identities.verify_collection_lemma" and s.trace_id in lemma_s:
            lemma_s[s.trace_id] += s.duration
    return {
        "spans": {name: dict(agg) for name, agg in totals.items()},
        "counts": dict(tracer.counts),
        "seconds": dict(tracer.seconds),
        "lemma_s": lemma_s,
    }


def layer_metrics(summary: dict, traced_wall: float, serial_wall: float,
                  pool_wall: float, jobs: int) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced pass, and the base of each ratio.

    ``serial_wall`` is the untraced pass at jobs 1, ``pool_wall`` the
    untraced pass of the same inputs at ``jobs`` (the same pass when ``jobs``
    is 1).
    """
    spans, counts, seconds = summary["spans"], summary["counts"], summary["seconds"]

    def sp(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0)

    multiply_calls = counts.get("pcgroup.PcGroup.multiply", 0)
    misses = counts.get("pcgroup.PcGroup.multiply.memo_misses", 0)
    bar_s = sp("multiplier.bar_homology", "s")
    out = {
        "catalog.load_bundled.s": sp("catalog.load_bundled", "s"),
        "catalog.import_file.s": sp("catalog.import_file", "s"),
        "pcgroup.check_consistency.calls": sp("pcgroup.check_consistency", "calls"),
        "pcgroup.check_consistency.s": sp("pcgroup.check_consistency", "s"),
        "pcgroup.PcGroup.init.calls": counts.get("pcgroup.PcGroup.init", 0),
        "pcgroup.PcGroup.classify.s": sp("pcgroup.PcGroup.classify", "s"),
        "suites.run_suites.s": sp("suites.run_suites", "s"),
        "pcgroup.Collector.collect.calls": counts.get("pcgroup.Collector.collect", 0),
        "pcgroup.PcGroup.multiply.calls": multiply_calls,
        "pcgroup.PcGroup.multiply.memo_misses": misses,
        "pcgroup.PcGroup.multiply.memo_miss_ratio": (
            misses / multiply_calls if multiply_calls else 0.0),
        "intlinalg.LatticeBasis.add.calls": counts.get("intlinalg.LatticeBasis.add", 0),
        "intlinalg.LatticeBasis.add.s": seconds.get("intlinalg.LatticeBasis.add", 0.0),
        "intlinalg.LatticeBasis.basis_nnz": counts.get("intlinalg.LatticeBasis.basis_nnz", 0),
        "intlinalg.snf.calls": sp("intlinalg.snf", "calls"),
        "intlinalg.snf.s": sp("intlinalg.snf", "s"),
        "multiplier.tails_matrix.calls": sp("multiplier.tails_matrix", "calls"),
        "multiplier.tails_matrix.s": sp("multiplier.tails_matrix", "s"),
        "multiplier.multiplication_table.s": sp("multiplier.multiplication_table", "s"),
        "multiplier.bar_homology.calls": sp("multiplier.bar_homology", "calls"),
        "multiplier.bar_homology.s": bar_s,
        "multiplier.bar_homology.self_s": sp("multiplier.bar_homology", "self_s"),
        "multiplier.bar_homology.wall_share": bar_s / traced_wall,
        "multiplier.schur_cover.s": sp("multiplier.schur_cover", "s"),
        "multiplier.exterior_exponent.self_s": sp("multiplier.exterior_exponent", "self_s"),
        "verifier.profile.s": sp("verifier.profile", "s"),
        "verifier.evaluate_rules.s": sp("verifier.evaluate_rules", "s"),
        "verifier.record_for.sum_s": sp("verifier.record_for", "s"),
        "verifier.record_for.max_s": sp("verifier.record_for", "max_s"),
        "verifier.run.busy_frac": (
            serial_wall / (jobs * pool_wall) if sp("verifier.run", "calls") else 0.0),
        "verifier.run.critical_group_s": sp("verifier.record_for", "max_s"),
        **{f"identities.{lemma}.s": s for lemma, s in summary["lemma_s"].items()},
        "freenil.HallBasis.calls": sp("freenil.HallBasis", "calls"),
        "freenil.HallBasis.s": sp("freenil.HallBasis", "s"),
        "freenil.normal_form.calls": counts.get("freenil.normal_form", 0),
        "freenil.TruncatedSeries.mul.calls": counts.get("freenil.TruncatedSeries.mul", 0),
        "commexpr.parse_expr.calls": counts.get("commexpr.parse_expr", 0),
        "intlinalg.IntegerSolver.solve.calls": counts.get("intlinalg.IntegerSolver.solve", 0),
        "trace.untraced_wall_s": serial_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - serial_wall,
        "trace.overhead_ratio": (traced_wall - serial_wall) / serial_wall,
    }
    bases = {
        "pcgroup.PcGroup.multiply.memo_miss_ratio":
            f"memo_misses/calls = {misses}/{multiply_calls}",
        "multiplier.bar_homology.wall_share":
            f"bar_homology.s/traced_wall_s = {bar_s:.4f}/{traced_wall:.4f}",
        "verifier.run.busy_frac": (
            f"serial_wall_s/(jobs*pool_wall_s) = {serial_wall:.4f}/({jobs}*{pool_wall:.4f})"
            if sp("verifier.run", "calls") else "no verifier.run call"),
        "trace.overhead_ratio":
            f"overhead_s/untraced_wall_s = {traced_wall - serial_wall:.4f}/{serial_wall:.4f}",
    }
    return out, bases
