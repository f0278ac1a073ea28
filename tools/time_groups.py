"""Time verify's per-group record stage by stage, the bar oracle, the identity checks and start-up; print JSON.

    PYTHONPATH=src python tools/time_groups.py [--repeat 3]

``groups``: each bundled group's ``record_for``, from a fresh
``PcPresentation`` (the same fields, none of its cached collector, overlap
run or group) with ``group_of``'s cache cleared, so it pays for everything a
first ``verify`` of that group pays for after the catalog is loaded.  During
that call the functions ``profile`` and ``record_for`` call are wrapped at
the names they look them up by, and each wrapper adds its calls' time to one
column, in call order: ``group`` (``verifier.group_of``, G's construction
with its overlap run), ``classify``, ``run_suites``, ``schur_cover``,
``exterior_exponent``, ``crosscheck`` (``verifier.crosscheck_multiplier``,
M(G) by the bar oracle) and ``evaluate_rules``.  A stage is timed only when
no other stage is running, so the stages are exclusive and add up to at most
``record_for``.  ``snf`` and ``cover_consistency`` (the cover's overlap run)
are the parts of ``schur_cover`` spent in those two.  The wrappers are
removed afterwards.  A group of order at most ``ORACLE_HARD_CAP`` also gets
``bar``: ``bar_homology`` in degree 2 on its Cayley table, the table built
before the timing.

``lemmas``: ``verify_collection_lemma`` at its default ``n_max`` on each
lemma, with the ``alpha`` and class-5 factor caches cleared before each.

``setup``: ``import schurlab.catalog`` (``import_s``) and ``load_bundled()``
(``load_s``) in fresh interpreters, in two states that alternate, each on its
own copy of the package made without bytecode caches: ``source`` runs
``python -B``, so schurlab is compiled from source on every run, as in a
fresh checkout, while the standard library reads its installed caches;
``bytecode`` runs ``python`` once untimed to write the copy's caches and then
reads them.

Every figure is the best of ``--repeat`` timings, in seconds.  ``sum_s``
adds each group column and the lemmas up; ``stage_share`` is the stages'
sum over ``record_for``'s.
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
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import Callable

import schurlab
from schurlab import multiplier, pcgroup, verifier
from schurlab.catalog import load_bundled
from schurlab.identities import LEMMA_IDS, _l41_layers, alpha, verify_collection_lemma
from schurlab.multiplier import ORACLE_HARD_CAP, bar_homology, multiplication_table
from schurlab.pcgroup import PcGroup, group_of
from schurlab.verifier import record_for

# column: the owner and name by which profile or record_for finds the stage
STAGES = {
    "group": (verifier, "group_of"),
    "classify": (PcGroup, "classify"),
    "run_suites": (verifier, "run_suites"),
    "schur_cover": (verifier, "schur_cover"),
    "exterior_exponent": (verifier, "exterior_exponent"),
    "crosscheck": (verifier, "crosscheck_multiplier"),
    "evaluate_rules": (verifier, "evaluate_rules"),
}
# the parts of schur_cover shown apart
PARTS = {
    "snf": (multiplier, "snf"),
    "cover_consistency": (pcgroup, "check_consistency"),
}
COLUMNS = ("record_for", *STAGES, *PARTS, "bar")


def best_of(repeat: int, sample: Callable[[], dict]) -> dict:
    """Per key, the least of ``repeat`` calls to ``sample``, each a dict of seconds."""
    runs = [sample() for _ in range(repeat)]
    return {key: round(min(run[key] for run in runs), 6) for key in runs[0]}


def seconds(run: Callable, *args) -> float:
    gc.collect()
    start = time.perf_counter()
    run(*args)
    return time.perf_counter() - start


@contextlib.contextmanager
def clocked(spent: dict[str, float]):
    """Wrap every stage and part, adding the time of its calls to ``spent``:
    a stage's when no stage is running, a part's when only ``schur_cover`` is."""
    running: list[str] = []

    def wrap(column: str, original: Callable, inside: list[str]) -> Callable:
        def timed(*args, **kwargs):
            if running != inside:
                return original(*args, **kwargs)
            running.append(column)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spent[column] += time.perf_counter() - start
                running.pop()

        return timed

    originals = []
    try:
        for stages, inside in ((STAGES, []), (PARTS, ["schur_cover"])):
            for column, (owner, name) in stages.items():
                original = getattr(owner, name)
                originals.append((owner, name, original))
                setattr(owner, name, wrap(column, original, inside))
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)


def time_group(entry, repeat: int) -> dict[str, float]:
    """Every column of one catalog entry; ``bar`` only up to ``ORACLE_HARD_CAP``."""

    def sample() -> dict[str, float]:
        fresh = dataclasses.replace(entry.presentation)
        group_of.cache_clear()
        spent = dict.fromkeys(COLUMNS[:-1], 0.0)  # bar below, where it applies
        with clocked(spent):
            spent["record_for"] = seconds(record_for, fresh)
        if entry.order <= ORACLE_HARD_CAP:
            table = multiplication_table(group_of(fresh))
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "bar oracle running above the default cap")
                spent["bar"] = seconds(bar_homology, table, 2, ORACLE_HARD_CAP)
        return spent

    return best_of(repeat, sample)


def time_lemmas(repeat: int) -> dict[str, float]:
    def sample() -> dict[str, float]:
        spent = {}
        for lemma_id in LEMMA_IDS:
            alpha.cache_clear()
            _l41_layers.cache_clear()
            spent[lemma_id] = seconds(verify_collection_lemma, lemma_id)
        return spent

    return best_of(repeat, sample)


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
SETUP_STATES = {"source": ["-B"], "bytecode": []}


def probe_setup(flags: list[str], src: Path) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # -B decides, per state
    proc = subprocess.run([sys.executable, *flags, "-c", SETUP_PROBE],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def time_setup(repeat: int) -> dict[str, dict[str, float]]:
    package = Path(schurlab.__file__).resolve().parent
    with tempfile.TemporaryDirectory() as tmp:
        copies = {state: Path(tmp, state) for state in SETUP_STATES}
        for src in copies.values():
            shutil.copytree(package, src / "schurlab",
                            ignore=shutil.ignore_patterns("__pycache__"))
        probe_setup(SETUP_STATES["bytecode"], copies["bytecode"])  # writes its caches

        def sample() -> dict[tuple[str, str], float]:  # both states, so drift hits both
            return {(state, stage): t
                    for state, flags in SETUP_STATES.items()
                    for stage, t in probe_setup(flags, copies[state]).items()}

        best = best_of(repeat, sample)
    return {state: {stage: best[state, stage] for stage in ("import_s", "load_s")}
            for state in SETUP_STATES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3,
                        help="timings of each group, lemma and start-up state; "
                        "each figure is their best (default 3)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    entries = sorted(load_bundled(), key=lambda e: e.name)
    groups = {e.name: time_group(e, args.repeat) for e in entries}
    lemmas = time_lemmas(args.repeat)
    sum_s = {column: round(sum(g.get(column, 0.0) for g in groups.values()), 6)
             for column in COLUMNS}
    sum_s["lemmas"] = round(sum(lemmas.values()), 6)
    report = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeat": args.repeat,
        "columns": list(COLUMNS),
        "sum_s": sum_s,
        "stage_share": round(sum(sum_s[s] for s in STAGES) / sum_s["record_for"], 4),
        "groups": groups,
        "lemmas": lemmas,
        "setup": time_setup(args.repeat),
    }
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
