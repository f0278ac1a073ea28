"""Benchmark of schurlab, driven through its public API from outside.

    python3 perfbench/run.py --workload crosscheck --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Each run builds its inputs from the seed (a sample of bundled presentations,
written as a temporary catalog and verified with ``include_bundled=False``, or
a list of lemma ids), then repeats passes: at least two, and more while one
more pass, as long as the last, still ends within ``--seconds``.
Every pass starts a fresh interpreter, because every CLI user pays for a cold
``group_of`` cache, cold product memos and a cold ``alpha`` cache. All load
comes from one closed-loop caller, serially: the next pass starts when the
previous one has finished. Each item of every pass (a group's record or a
lemma's report line) is compared with ``reference/``; an item that differs,
or every item of a pass that raises, counts as failed.

Workloads, why each exists, and the end-to-end metric each layer moves there:

- ``crosscheck``: the 17 bundled groups of order <= 16 in a seeded order,
  default oracle cap, so every group takes ``method="both"``. About 95% of a
  pass is the bar-complex oracle, and nearly all of that is
  ``LatticeBasis.add``: a fill-reducing elimination lands here and moves
  ``wall_s`` and ``peak_rss_mib`` (``LatticeBasis.add.{calls,s}``,
  ``basis_nnz``, ``multiplication_table.s``, ``bar_homology.{s,self_s}``).
- ``structure``: 14 groups of order > 32 in a seeded order:
  ``heisenberg_3_x_c3``, ``heisenberg_5``, ``modular_625``, ``cyclic_243``,
  ``abelian_27_3`` and the 9 that take a few milliseconds. The oracle is
  skipped, so the bar code does no work: the time goes to suites, the cover
  plus e(G∧G) and ``classify``. Computing each invariant once lands here and
  bypasses the oracle; it moves ``wall_s`` through ``classify.s``,
  ``run_suites.s``, ``snf``, ``tails_matrix``, ``schur_cover.s``,
  ``exterior_exponent.self_s`` and the collector and multiply counts.
- ``identities``: the 12 collection lemmas at the CLI defaults in a seeded
  order. No ``PcGroup`` is built. It uses ``LatticeBasis`` through
  ``IntegerSolver``: many small solves against one large lattice, so a
  pivot-order change that helps ``crosscheck`` but hurts this use shows
  here (``identities.<id>.s``, ``HallBasis``, ``normal_form``,
  ``TruncatedSeries.mul``, ``parse_expr``, ``IntegerSolver.solve``).

The catalog and consistency checks (``load_bundled.s``, ``import_file.s``,
``check_consistency``) move ``setup_s`` on every workload; ``profile.s``,
``evaluate_rules.s`` and ``record_for`` move ``wall_s`` on both verify
workloads. The ``verifier`` process pool (scheduling, pickling, the slowest
group bounding the wall) is measured in the traced run of the verify
workloads, from an untraced pass of the same inputs at ``jobs = nproc``
(``verifier.run.busy_frac``, ``critical_group_s``).

What is left out, and why: on a shared 2-vCPU Xeon VM a neighbour slows
the whole machine by up to half, in bursts that change within a second and
in stretches of tens of seconds to minutes. A pass of several seconds, timed
whole, reads what the host was doing: with 30-36-s runs the fastest whole
pass spread by 27-33% between runs for all 21 groups of order > 32 serially
(8 s a pass), at jobs 2 (4 s), and with ``cyclic_25`` at jobs 2 (10 s), and
by up to 40% for 2-s passes. A pool pass cannot be sliced the way ``wall_s``
is (see below), so there is no ``catalog-par`` workload timed end to end at
``jobs = nproc``, and ``structure`` leaves out ``abelian_3_3_3_3``
(2-3 s alone, nearly all of it e(G∧G) on a cover of order 3^10, past the
product memo's limit) and the groups whose time is nearly all suites
(``cyclic_64``, ``cyclic_81``, ``modular_81``, ``wreath_c3_c3``,
``abelian_9_9``, ``abelian_9_3_3``), so that a run holds about ten passes.
No bundled group of order 25-32 is in
any workload: each costs 10-30 s in the oracle, and a seeded pick among them
would move the wall time with the seed by more than any bound. For the same
reason the seed only orders fixed sets. Peak memory still follows the order
by up to a tenth on ``structure``, since ``group_of`` keeps every group
alive.

End-to-end metrics (``--trace 0``):

- ``setup_s``: import ``schurlab`` and ``load_bundled()`` (parse and
  consistency-check all 49 groups) in a fresh interpreter; the median of one
  before every pass and of at least seven in all.
- ``wall_s``: from the first call into the workload to its rendered result,
  with each slice of the pass at its fastest over the run's passes. The
  pass marks the start of every item and of every n-th call of a hot
  function (``passrun.MARKED``, about 1% of a pass), which cuts it into
  thousands of slices, most under a millisecond, the same slices in every
  pass; ``wall_s`` is the sum, over slices, of each slice's shortest time.
  A neighbour's bursts only add time and change within a second, so a short
  slice meets a quiet moment in some pass far more often than a whole pass
  does. Slowdowns that last minutes still move it: on the VM above, run
  medians of ``wall_s`` moved by up to a third between quiet and busy
  stretches, and within a set of ten runs the spread was 3-27%, against
  27-42% for the fastest whole pass. The fastest, median and slowest whole
  pass are printed with it.
- ``items_per_s``: groups, or lemma checks, per second of ``wall_s``.
- ``peak_rss_mib``: largest peak RSS of the pass process and its workers.
- ``error_frac``: failed items over attempted items. It is 0 on correct code,
  so it carries no relative bound; the result line reports it as ``failed``
  and ``attempted``.

Per-layer metrics (``--trace 1``) come from separate, serial, traced passes
of the same inputs, next to an untraced serial pass whose wall gives the
tracing overhead. ``layers.py`` lists them. Each workload also checks, on the traced
pass, that it still measures what it was built for (``trace.bypass_ok``).
``bounds`` and ``cli`` are not measured: ``bounds`` runs in microseconds and
``cli`` is thin argparse over ``verifier.run``. Tier-1 wall time is not a
metric either: one test run takes 8-12 minutes, and a check repeats each
workload 22 times.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. Every run first prints the
environment (nproc, Python, CPU, seed, commit) and every metric by name with
its unit, each ratio with its base. With ``--workload all`` every workload is
run, untraced and (with ``--trace 1``) traced.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference"
SCRATCH = ROOT / ".bench_tmp"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

SETUP_REPEATS = 7
# Untraced passes per run, even when one pass outlasts --seconds, so that
# each slice's fastest time is a choice between at least two.
MIN_PASSES = 2
# A run starts no pass after RUN_BUDGET_S and kills any pass still going at
# RUN_LIMIT_S, so that it ends inside the three minutes one run may take even
# when the code under test slows down.
RUN_BUDGET_S = 150.0
RUN_LIMIT_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Checkout:
    """The source tree under test and the reference outputs."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        from schurlab.catalog import load_bundled

        self.presentations = {e.name: e.presentation for e in load_bundled()}
        self.orders = {name: p.order for name, p in self.presentations.items()}
        bundle = json.loads((REFERENCE / "verify_bundle.json").read_text())
        self.records = {rec["name"]: rec for rec in bundle["groups"]}
        self.lemma_lines = {
            line.split(":", 1)[0]: line
            for line in (REFERENCE / "identities.txt").read_text().splitlines()
        }


def child(request: dict, timeout: float) -> dict:
    """Run passrun.py in a fresh interpreter and its own process group; kill
    the group on timeout, and whatever is left of it on return."""
    request = dict(request, src=str(SRC))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passrun.py"), json.dumps(request)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"error": f"pass timed out after {timeout:.0f} s"}
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"pass exited {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "pass printed no result"}


def count_failures(sample: workloads.Sample, result: dict, checkout: Checkout) -> int:
    """Items of one pass whose output differs from the reference; all of them
    when the pass raised or produced nothing."""
    n = len(sample.items)
    if result.get("error") or result.get("output") is None:
        return n
    if sample.kind == "identities":
        lines = result["output"]
        if len(lines) != n:
            return n
        return sum(
            line != checkout.lemma_lines.get(lemma)
            for lemma, line in zip(sample.items, lines)
        )
    try:
        records = json.loads(result["output"])["groups"]
    except (ValueError, KeyError, TypeError):
        return n
    seen = {}
    for rec in records:
        name = workloads.bundled_name(sample, rec.get("name"))
        if name is None or name in seen:
            continue
        seen[name] = dict(rec, name=name) == checkout.records.get(name)
    return sum(not seen.get(name, False) for name in sample.items)


class Run:
    """One benchmark run of one workload."""

    def __init__(self, checkout: Checkout, workload: str, seed: int, seconds: float):
        self.checkout = checkout
        self.sample = workloads.make_sample(workload, seed, checkout.orders)
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.started = time.perf_counter()
        self.tmp = None

    def __enter__(self):
        SCRATCH.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
        self.catalog = self.tmp / "sample.cat"
        if self.sample.kind == "verify":
            self.catalog.write_text(
                workloads.catalog_text(self.sample, self.checkout.presentations))
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    def remaining(self) -> float:
        return self.started + RUN_LIMIT_S - time.perf_counter()

    def one_pass(self, trace: bool, jobs: int) -> dict:
        request = {"mode": self.sample.kind, "trace": trace}
        if self.sample.kind == "verify":
            request.update(catalog=str(self.catalog), jobs=jobs)
        else:
            request.update(lemmas=list(self.sample.items))
        result = child(request, self.remaining())
        failed = count_failures(self.sample, result, self.checkout)
        self.attempted += len(self.sample.items)
        self.failed += failed
        if result.get("error"):
            self.errors.append(result["error"])
        return result

    def repeat(self, body, at_least: int) -> list:
        """Call ``body`` at least ``at_least`` times, then again while another
        call, as long as the last one, still ends within ``seconds``; never
        start it after the run's budget."""
        deadline = time.perf_counter() + self.seconds
        out = []
        while time.perf_counter() < self.started + RUN_BUDGET_S:
            t0 = time.perf_counter()
            out.append(body())
            now = time.perf_counter()
            if len(out) >= at_least and now + (now - t0) > deadline:
                break
        return out

    def setup_once(self, setups: list[float]) -> None:
        result = child({"mode": "setup"}, self.remaining())
        if result.get("groups") != len(self.checkout.presentations):
            self.errors.append(result.get("error", "setup loaded a wrong bundle"))
        else:
            setups.append(result["setup_s"])

    def end_to_end(self) -> tuple[dict[str, float], dict[str, str]]:
        # One set-up before every pass, so that set-up is sampled across the
        # whole run rather than in one burst, then more up to SETUP_REPEATS.
        setups: list[float] = []

        def setup_and_pass():
            self.setup_once(setups)
            return self.one_pass(False, 1)

        passes = self.repeat(setup_and_pass, MIN_PASSES)
        while len(setups) < SETUP_REPEATS and not self.errors:
            self.setup_once(setups)
        n = len(self.sample.items)
        timed = [p for p in passes if not p.get("error") and "marks" in p]
        if not timed or not setups:
            return {}, {}
        wall, sliced = fastest_slices(timed)
        walls = [p["wall_s"] for p in timed]
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": wall,
            "items_per_s": n / wall,
            "peak_rss_mib": max(p["rss_kib"] for p in passes if "rss_kib" in p) / 1024,
        }
        bases = {
            "setup_s": f"median of {len(setups)}: min {min(setups):.4f}, max {max(setups):.4f}",
            "wall_s": f"sum of {sliced[0]} slices, each at its fastest over {sliced[1]}"
                      f" of {len(timed)} passes; whole passes: fastest {min(walls):.4f},"
                      f" median {statistics.median(walls):.4f}, max {max(walls):.4f}",
            "items_per_s": f"items/wall_s = {n}/{wall:.4f}",
        }
        return metrics, bases

    def per_layer(self) -> tuple[dict[str, float], dict[str, str]]:
        # The untraced pool pass gives the verifier's pool utilisation; the
        # other passes, like every end-to-end pass, are serial.
        jobs = nproc() if self.sample.kind == "verify" else 1

        def trio():
            passes = (self.one_pass(False, 1),
                      self.one_pass(False, jobs) if jobs > 1 else None,
                      self.one_pass(True, 1))
            return passes if all(p is None or "wall_s" in p for p in passes) else None

        trios = [t for t in self.repeat(trio, 1) if t is not None]
        if not trios:
            return {}, {}
        # As end to end, each wall is the fastest of its kind; the spans and
        # counts come from the fastest traced pass, so that every ratio
        # matches the base printed with it.
        serial_wall = min(t[0]["wall_s"] for t in trios)
        pool_wall = min(t[1]["wall_s"] for t in trios) if jobs > 1 else serial_wall
        traced = min((t[2] for t in trios), key=lambda p: p["wall_s"])
        metrics, bases = layers.layer_metrics(
            traced["trace"], traced["wall_s"], serial_wall, pool_wall, jobs)
        check, holds = layers.BYPASS[self.sample.workload]
        metrics["trace.bypass_ok"] = int(holds(metrics))
        if not holds(metrics):
            print(f"bypass check failed on {self.sample.workload}: {check}", file=sys.stderr)
        return metrics, bases


def fastest_slices(passes: list[dict]) -> tuple[float, tuple[int, int]]:
    """A pass's wall time with each of its slices at its fastest over
    ``passes``, and (slices, passes used).

    The marks of a pass cut it into slices of about a millisecond. On a host
    whose cores are shared, a neighbour slows a pass by up to half, and such
    slowdowns change within a second, so a whole pass, or a whole group,
    rarely runs at full speed, while every short slice does in some pass.
    Passes of the same inputs cut the same slices; should the count differ in
    some pass, only the passes with the most common count are used.
    """
    cuts = [[0.0, *p["marks"], p["wall_s"]] for p in passes]
    common = statistics.mode(len(c) for c in cuts)
    cuts = [c for c in cuts if len(c) == common]
    wall = sum(
        min(c[i + 1] - c[i] for c in cuts) for i in range(common - 1)
    )
    return wall, (common - 1, len(cuts))


def run_workload(checkout: Checkout, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    with Run(checkout, workload, seed, seconds) as run:
        if trace:
            values, bases = run.per_layer()
            units = dict(layers.METRICS)
        else:
            values, bases = run.end_to_end()
            units = dict(END_TO_END)
    for error in run.errors[:5]:
        print(f"{workload}: {error}", file=sys.stderr)
    return {
        "correct": run.failed == 0 and not run.errors and len(values) == len(units),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items() if name in values
        },
        "bases": bases,
    }


def environment(seed: int) -> dict[str, str]:
    return {
        "nproc": str(nproc()), "python": platform.python_version(),
        "cpu": cpu_model(), "seed": str(seed), "commit": commit(),
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def commit() -> str:
    # A checkout that is not a repository of its own has no commit; the
    # ceiling keeps git from reporting a repository around it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def print_result(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        line = f"{workload}  {name} = {metric['value']:.6g} {metric['unit']}"
        if name in result["bases"]:
            line += f"  ({result['bases'][name]})"
        print(line)
    frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"{workload}  error_frac = {frac:.6g}  "
          f"(failed/attempted = {result['failed']}/{result['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "schurlab" / "__init__.py").is_file():
        print(f"error: no schurlab sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2

    checkout = Checkout()
    for key, value in environment(args.seed).items():
        print(f"env  {key} = {value}")
    if args.workload != "all":
        result = run_workload(checkout, args.workload, args.seed, args.seconds, bool(args.trace))
        print_result(args.workload, result)
        del result["bases"]
        print(json.dumps(result))
        return 0

    results = {}
    for workload in workloads.WORKLOADS:
        modes = (False, True) if args.trace else (False,)
        for trace in modes:
            result = run_workload(checkout, workload, args.seed, args.seconds, trace)
            print_result(workload, result)
            results[f"{workload}{'/trace' if trace else ''}"] = result
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{key}/{name}": metric
            for key, r in results.items() for name, metric in r["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
