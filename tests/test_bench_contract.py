"""The benchmark in ``perfbench/`` reaches into schurlab by name: an untraced
pass marks hot calls (``passrun.MARKED`` and the per-item functions) and a
traced pass wraps layer boundaries (``layers.instrument``).  These tests fail
when a refactor removes or moves one of those names, instead of the benchmark
breaking at its next run.  ``perfbench/`` is imported read-only.
"""
from __future__ import annotations

import dataclasses
import importlib
import sys
from pathlib import Path

from schurlab import identities, verifier

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import layers
    import passrun
finally:
    sys.path.remove(PERFBENCH)


def _assert_wrappable(owner, attr: str) -> None:
    """The tracer replaces a class attribute in the class's own namespace and a
    module attribute wherever the package imported it."""
    if isinstance(owner, type):
        assert attr in owner.__dict__, f"{owner.__qualname__}.{attr}"
    else:
        assert hasattr(owner, attr), f"{owner.__name__}.{attr}"


class _CheckingTracer:
    """Stands in for ``tracer.Tracer``: checks each name instead of wrapping it."""

    def __init__(self):
        self.names: list[str] = []

    def _check(self, owner, attr: str, *args, **kwargs) -> None:
        _assert_wrappable(owner, attr)
        self.names.append(f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}")

    span = timed = tally = count = _check


def test_marked_names_exist():
    for name, every in passrun.MARKED:
        assert every >= 1, name
        module, *path, attr = name.split(".")
        owner = importlib.import_module(f"schurlab.{module}")
        for part in path:
            owner = getattr(owner, part)
        _assert_wrappable(owner, attr)
    _assert_wrappable(verifier, "record_for")
    _assert_wrappable(identities, "verify_collection_lemma")


def test_instrumented_names_exist():
    tracer = _CheckingTracer()
    layers.instrument(tracer)
    assert "schurlab.pcgroup.check_consistency" in tracer.names
    assert "Collector.collect" in tracer.names
    assert "schurlab.multiplier.tails_matrix" in tracer.names


def test_pass_entry_points_exist():
    fields = {f.name for f in dataclasses.fields(verifier.RunConfig)}
    assert {"catalog_paths", "include_bundled", "jobs"} <= fields
    _assert_wrappable(verifier, "run")
    catalog = importlib.import_module("schurlab.catalog")
    _assert_wrappable(catalog, "load_bundled")
    # the run script names its items by entry.name and verifies entry.presentation
    for entry in catalog.load_bundled():
        assert entry.presentation.name == entry.name
