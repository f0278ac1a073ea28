"""Time ``record_for``, or the bar oracle, on each bundled group; print JSON.

    PYTHONPATH=src python tools/time_groups.py [--repeat 3] [--bar]

Each timing starts from a fresh ``PcPresentation`` (the same fields, none of
its cached collector, overlap run or group) with ``group_of``'s cache
cleared, so it pays for everything a first ``verify`` of that group pays for
after the catalog is loaded.  With ``--bar`` it times the bar oracle alone
instead: ``bar_homology`` in degree 2 on the Cayley table of each group of
order at most ``ORACLE_HARD_CAP``, the table built before the timing.  A
group's figure is the best of ``--repeat`` timings, in seconds; ``sum_s``
adds them up.
"""
from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import platform
import sys
import time
import warnings

from schurlab.catalog import load_bundled
from schurlab.multiplier import ORACLE_HARD_CAP, bar_homology, multiplication_table
from schurlab.pcgroup import group_of
from schurlab.verifier import record_for


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


def time_bar(pres, repeat: int) -> float:
    table = multiplication_table(group_of(pres))
    best = float("inf")
    for _ in range(repeat):
        gc.collect()
        start = time.perf_counter()
        bar_homology(table, 2, cap=ORACLE_HARD_CAP)
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=3, help="timings per group (default 3)")
    parser.add_argument("--bar", action="store_true",
                        help="time bar_homology in degree 2 on the groups it accepts")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    entries = sorted(load_bundled(), key=lambda e: e.name)
    timer = time_group
    if args.bar:
        entries = [e for e in entries if e.order <= ORACLE_HARD_CAP]
        timer = time_bar
        warnings.filterwarnings("ignore", "bar oracle running above the default cap")
    groups = {e.name: round(timer(e.presentation, args.repeat), 6) for e in entries}
    print(json.dumps({
        "python": platform.python_version(),
        "machine": platform.machine(),
        "repeat": args.repeat,
        "timed": "bar_homology" if args.bar else "record_for",
        "sum_s": round(sum(groups.values()), 6),
        "groups": groups,
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
