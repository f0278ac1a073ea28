"""Time ``record_for``, its stages, the bar oracle, the identity checks or start-up; print JSON.

    PYTHONPATH=src python tools/time_groups.py [--repeat 3]
        [--stages | --bar | --identities | --setup]

Each timing starts from a fresh ``PcPresentation`` (the same fields, none of
its cached collector, overlap run or group) with ``group_of``'s cache
cleared, so it pays for everything a first ``verify`` of that group pays for
after the catalog is loaded.  With ``--bar`` it times the bar oracle alone
instead: ``bar_homology`` in degree 2 on the Cayley table of each group of
order at most ``ORACLE_HARD_CAP``, the table built before the timing.  A
group's figure is the best of ``--repeat`` timings, in seconds; ``sum_s``
adds them up.

With ``--stages`` it times the stages of that first ``verify`` apart, on
the same fresh presentation in order: G's overlap run (``overlaps``),
``classify`` (with the group's construction), ``run_suites``,
``schur_cover`` and ``exterior_exponent``; ``snf`` and
``cover_consistency`` (the cover's overlap run) are the parts of
``schur_cover`` spent in those two.  Each stage's figure is its best of
``--repeat``; ``sum_s`` adds each stage up over the groups.

With ``--identities`` it times ``verify_collection_lemma`` at its default
``n_max`` on each lemma instead, with the ``alpha`` and class-5 factor
caches cleared before each timing; ``lemmas`` holds the best of
``--repeat`` per lemma and ``sum_s`` adds them up.

With ``--setup`` it times start-up instead: ``import schurlab.catalog``
(``import_s``) and ``load_bundled()`` (``load_s``) in ``--repeat`` fresh
interpreters per state, reported as best and median, in two states, each on
its own copy of the package made without bytecode caches: ``source`` runs
``python -B``, so schurlab is compiled from source on every run, as in a
fresh checkout, while the standard library reads its installed caches;
``bytecode`` runs ``python`` once untimed to write the copy's caches and
then reads them.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import schurlab
from schurlab import multiplier, pcgroup
from schurlab.catalog import load_bundled
from schurlab.identities import LEMMA_IDS, _l41_layers, alpha, verify_collection_lemma
from schurlab.multiplier import (
    ORACLE_HARD_CAP,
    bar_homology,
    exterior_exponent,
    multiplication_table,
    schur_cover,
)
from schurlab.pcgroup import group_of
from schurlab.suites import run_suites
from schurlab.verifier import record_for

STAGES = (
    "overlaps", "classify", "run_suites", "schur_cover", "snf", "cover_consistency",
    "exterior_exponent",
)


def time_group(pres, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        fresh = dataclasses.replace(pres)
        group_of.cache_clear()
        gc.collect()
        start = time.perf_counter()
        record_for(fresh)
        best = min(best, time.perf_counter() - start)
    return best


@contextlib.contextmanager
def timing(owner, name: str, spent: dict[str, float], stage: str):
    """Add the time of every call to ``owner.name`` to ``spent[stage]``."""
    original = getattr(owner, name)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            spent[stage] += time.perf_counter() - start

    setattr(owner, name, timed)
    try:
        yield
    finally:
        setattr(owner, name, original)


def time_stages(pres, repeat: int) -> dict[str, float]:
    best = dict.fromkeys(STAGES, float("inf"))
    for _ in range(repeat):
        fresh = dataclasses.replace(pres)
        group_of.cache_clear()
        gc.collect()
        spent = dict.fromkeys(STAGES, 0.0)

        def clock(stage, run, *args):
            start = time.perf_counter()
            result = run(*args)
            spent[stage] = time.perf_counter() - start
            return result

        clock("overlaps", lambda: fresh.overlaps)
        flags = clock("classify", lambda: group_of(fresh).classify())
        clock("run_suites", run_suites, group_of(fresh), flags)
        # G's consistency check is cached by now: only the cover's is timed
        with timing(multiplier, "snf", spent, "snf"), \
                timing(pcgroup, "check_consistency", spent, "cover_consistency"):
            cover = clock("schur_cover", schur_cover, fresh)
        clock("exterior_exponent", exterior_exponent, fresh, cover)
        best = {stage: min(best[stage], spent[stage]) for stage in STAGES}
    return {stage: round(t, 6) for stage, t in best.items()}


def time_bar(pres, repeat: int) -> float:
    table = multiplication_table(group_of(pres))
    best = float("inf")
    for _ in range(repeat):
        gc.collect()
        start = time.perf_counter()
        bar_homology(table, 2, cap=ORACLE_HARD_CAP)
        best = min(best, time.perf_counter() - start)
    return best


# run in each fresh interpreter: the two start-up stages, timed apart
SETUP_PROBE = (
    "import json, time\n"
    "t0 = time.perf_counter()\n"
    "import schurlab.catalog\n"
    "t1 = time.perf_counter()\n"
    "schurlab.catalog.load_bundled()\n"
    "t2 = time.perf_counter()\n"
    "print(json.dumps({'import_s': t1 - t0, 'load_s': t2 - t1}))\n"
)


def probe_setup(flags: list[str], src: Path) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # -B decides, per state
    proc = subprocess.run([sys.executable, *flags, "-c", SETUP_PROBE],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def best_and_median(times: list[float]) -> dict[str, float]:
    return {"best": round(min(times), 6), "median": round(statistics.median(times), 6)}


def time_setup(repeat: int) -> dict:
    package = Path(schurlab.__file__).resolve().parent
    with tempfile.TemporaryDirectory() as tmp:
        states = {"source": ["-B"], "bytecode": []}
        copies = {state: Path(tmp, state) for state in states}
        for src in copies.values():
            shutil.copytree(package, src / "schurlab",
                            ignore=shutil.ignore_patterns("__pycache__"))
        probe_setup(states["bytecode"], copies["bytecode"])  # writes its bytecode caches
        runs = {state: [] for state in states}
        for _ in range(repeat):  # the states alternate, so drift hits both
            for state, flags in states.items():
                runs[state].append(probe_setup(flags, copies[state]))
    return {
        state: {stage: best_and_median([run[stage] for run in samples])
                for stage in ("import_s", "load_s")}
        for state, samples in runs.items()
    }


def time_identities(repeat: int) -> dict[str, float]:
    best = {}
    for lemma_id in LEMMA_IDS:
        best[lemma_id] = float("inf")
        for _ in range(repeat):
            alpha.cache_clear()
            _l41_layers.cache_clear()
            gc.collect()
            start = time.perf_counter()
            verify_collection_lemma(lemma_id)
            best[lemma_id] = min(best[lemma_id], time.perf_counter() - start)
    return {lemma_id: round(t, 6) for lemma_id, t in best.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="timings per group or lemma, or per start-up state "
                        "(default 3)")
    what = parser.add_mutually_exclusive_group()
    what.add_argument("--stages", action="store_true",
                      help="time the stages of record_for apart, per group")
    what.add_argument("--bar", action="store_true",
                      help="time bar_homology in degree 2 on the groups it accepts")
    what.add_argument("--identities", action="store_true",
                      help="time verify_collection_lemma on each lemma")
    what.add_argument("--setup", action="store_true",
                      help="time import schurlab.catalog and load_bundled() in fresh "
                      "interpreters, from source and with bytecode")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeat": args.repeat,
    }
    if args.setup:
        report.update(timed="setup", states=time_setup(args.repeat))
    elif args.stages:
        entries = sorted(load_bundled(), key=lambda e: e.name)
        groups = {e.name: time_stages(e.presentation, args.repeat) for e in entries}
        report.update(timed="stages", stages=list(STAGES),
                      sum_s={stage: round(sum(g[stage] for g in groups.values()), 6)
                             for stage in STAGES},
                      groups=groups)
    elif args.identities:
        lemmas = time_identities(args.repeat)
        report.update(timed="verify_collection_lemma",
                      sum_s=round(sum(lemmas.values()), 6), lemmas=lemmas)
    else:
        entries = sorted(load_bundled(), key=lambda e: e.name)
        timer = time_group
        if args.bar:
            entries = [e for e in entries if e.order <= ORACLE_HARD_CAP]
            timer = time_bar
            warnings.filterwarnings("ignore", "bar oracle running above the default cap")
        groups = {e.name: round(timer(e.presentation, args.repeat), 6) for e in entries}
        report.update(timed="bar_homology" if args.bar else "record_for",
                      sum_s=round(sum(groups.values()), 6), groups=groups)
    print(json.dumps(report, indent=1))
    return 0

if __name__ == "__main__":
    sys.exit(main())
