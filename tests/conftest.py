"""Shared fixtures: bundled catalog, cached lemma checks, cached catalog runs.

The expensive artifacts (collection-lemma verification, full catalog verify
runs) are computed once per session and shared between the unit tests and the
acceptance tests.
"""
from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import types
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest

import schurlab
from schurlab import commexpr, pcgroup
from schurlab.catalog import load_bundled
from schurlab.freenil import group_commutator
from schurlab.identities import verify_collection_lemma
from schurlab.pcgroup import Collector, PcGroup, group_of
from schurlab.verifier import RunConfig, run


@lru_cache(maxsize=None)
def lemma_result(lemma_id: str):
    return verify_collection_lemma(lemma_id)


@lru_cache(maxsize=None)
def bundle_run(jobs: int):
    return run(RunConfig(jobs=jobs))


@pytest.fixture(scope="session")
def bundled():
    return {entry.name: entry for entry in load_bundled()}


@pytest.fixture(scope="session")
def groups(bundled):
    def get(name):
        return group_of(bundled[name].presentation)

    return get


def reference_closure(group, gens) -> frozenset:
    """<gens> by breadth-first search: the identity closed under right
    multiplication by ``gens`` (in a finite group the monoid is the group)."""
    elems = {group.identity}
    frontier = [group.identity]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = group.multiply(x, s)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return frozenset(elems)


@pytest.fixture(scope="session")
def closure():
    """The enumerating reference that induced pc sequences are tested against."""
    return reference_closure


def reference_center(group) -> frozenset:
    """Z(G) by sweeping G for the elements that commute with every generator."""
    gens = group.generators()
    return frozenset(
        w for w in group.elements()
        if all(group.multiply(w, g) == group.multiply(g, w) for g in gens)
    )


def reference_exponent(group, over=None, modulo=None) -> int:
    """The lcm over x in ``over`` (all of G when None) of the least k with x^k
    in ``modulo``, an element set (the identity when None), found by
    multiplying by x until the power lands there: exp(G), exp(G/N) or the
    exponent of a subgroup."""
    inside = (lambda w: w == group.identity) if modulo is None else modulo.__contains__
    e = 1
    for x in group.elements() if over is None else over:
        y, k = x, 1
        while not inside(y):
            y, k = group.multiply(y, x), k + 1
        e = math.lcm(e, k)
    return e


def reference_power_subgroup(group, k) -> frozenset:
    """G^k: the subgroup generated by the k-th powers of every element."""
    return group.subgroup({group.power(w, k) for w in group.elements()}).elements


@pytest.fixture(scope="session")
def sweeps():
    """The sweeping references that the center, the exponents and the power
    subgroups are tested against."""
    return types.SimpleNamespace(
        center=reference_center,
        exponent=reference_exponent,
        power_subgroup=reference_power_subgroup,
    )


def listed_group(pres) -> PcGroup:
    """The group of ``pres`` with index handles whatever its order, so that
    a reference sweeping a group above ``TABLE_ORDER`` walks its columns."""
    with mock.patch.object(pcgroup, "TABLE_ORDER", pres.order):
        return PcGroup(pres)


@pytest.fixture(scope="session")
def listed():
    return listed_group


@pytest.fixture(scope="session")
def check_lemma():
    return lemma_result


@pytest.fixture
def commutators_built(monkeypatch):
    """The (u, v) of each group commutator ``commexpr`` builds from here on."""
    built = []

    def counting(u, v):
        built.append((u, v))
        return group_commutator(u, v)

    monkeypatch.setattr(commexpr, "group_commutator", counting)
    return built


@pytest.fixture
def words_collected(monkeypatch):
    """The letters of each word ``Collector.collect`` collects from here on."""
    collected = []
    collect = Collector.collect

    def counting(self, letters, tails=None):
        letters = tuple(letters)
        collected.append(letters)
        return collect(self, letters, tails)

    monkeypatch.setattr(Collector, "collect", counting)
    return collected


@pytest.fixture(scope="session")
def catalog_run():
    return bundle_run


def schurlab_modules_after(code: str) -> list[str]:
    """The ``schurlab.*`` modules a fresh interpreter holds after running
    ``code`` against the schurlab under test, sorted; ``concurrent.futures``
    is listed too when it was loaded."""
    src = str(Path(schurlab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    report = (
        "import json, sys; print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('schurlab') or m == 'concurrent.futures')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="session")
def modules_after():
    return schurlab_modules_after


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for key in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(key, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                outcomes[nodeid.split("::")[-1]] = rep.outcome
    if not outcomes:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(outcomes):
        verdict = "PASS" if outcomes[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{name}: {verdict}")
