"""``tools/time_groups.py`` splits one ``record_for`` call into its stages by
wrapping the functions ``profile`` calls.  These tests time one small group:
every column is reported, the exclusive stages fit inside ``record_for``, and
every wrapper is gone afterwards, so no later caller sees a timed function.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "time_groups.py"
_spec = importlib.util.spec_from_file_location("time_groups", SCRIPT)
time_groups = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(time_groups)


def test_one_group_every_column(bundled):
    wrapped = {**time_groups.STAGES, **time_groups.PARTS}
    originals = {column: getattr(owner, name) for column, (owner, name) in wrapped.items()}
    entry = bundled["dihedral_8"]
    assert entry.order <= time_groups.ORACLE_HARD_CAP
    columns = time_groups.time_group(entry, repeat=1)
    assert list(columns) == list(time_groups.COLUMNS)  # bar included
    assert all(t >= 0 for t in columns.values()), columns
    # each figure is rounded to 1e-6 s, so the sum may exceed by half that per stage
    stages = sum(columns[stage] for stage in time_groups.STAGES)
    assert stages <= columns["record_for"] + 5e-7 * len(time_groups.STAGES), columns
    assert columns["snf"] + columns["cover_consistency"] <= columns["schur_cover"] + 1e-6
    for column, (owner, name) in wrapped.items():
        assert getattr(owner, name) is originals[column], column
