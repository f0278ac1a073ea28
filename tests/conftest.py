"""Shared fixtures: bundled catalog, cached lemma checks, cached catalog runs.

The expensive artifacts (collection-lemma verification, full catalog verify
runs) are computed once per session and shared between the unit tests and the
acceptance tests.
"""
from __future__ import annotations

from functools import lru_cache

import pytest

from schurlab.catalog import load_bundled
from schurlab.identities import verify_collection_lemma
from schurlab.pcgroup import group_of
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


@pytest.fixture(scope="session")
def check_lemma():
    return lemma_result


@pytest.fixture(scope="session")
def catalog_run():
    return bundle_run


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
