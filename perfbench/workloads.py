"""The benchmark's workloads: which inputs each pass gets for a given seed.

Every workload draws from the bundled catalog or from the lemma list, so the
reference outputs in ``reference/`` cover every item. The seed fixes the
sample and the processing order; the same seed always gives the same inputs.

Samples are chosen so that the amount of work does not depend on the seed:
the bundled groups of order 25 to 32 cost 10 to 30 s each in the bar oracle,
so a seeded pick among them would make a run's wall time depend on the seed
by far more than any regression bound. The seed therefore only permutes
fixed sets, whose cost does not depend on the order.
"""
from __future__ import annotations

import dataclasses
import random
from typing import Optional

from layers import LEMMA_IDS

WORKLOADS = ("crosscheck", "structure", "identities")

# crosscheck: groups small enough for the bar oracle at the default cap, so
# every group is derived both ways. The order-16 groups are the oracle's
# heaviest members here (about 95% of the pass in the bar complex).
CROSSCHECK_MAX_ORDER = 16
# structure: the oracle is skipped above the default cap (32), so the bar
# code does no work and the time goes to suites, covers and classify:
# heisenberg_3_x_c3 (a nontrivial cover, e(G∧G) and the suites), heisenberg_5
# (cover and e(G∧G)), modular_625 and cyclic_243 (classify), abelian_27_3
# (suites), and nine groups that take well under 0.2 s each (no suite
# applies, or the group is above the suites' order cap). The other groups of
# order > 32 are left out so that a pass stays near 2 s (see run.py).
STRUCTURE = (
    "heisenberg_3_x_c3", "heisenberg_5", "modular_625", "cyclic_243", "abelian_27_3",
    "cyclic_125", "cyclic_128", "dihedral_64", "dihedral_128", "modular_125",
    "quaternion_64", "quaternion_128", "semidihedral_64", "semidihedral_128",
)

@dataclasses.dataclass(frozen=True)
class Sample:
    """Inputs of one workload for one seed.

    For verify workloads ``items`` are bundled group names and ``labels`` the
    names they carry in the generated catalog; ``verify`` orders groups by
    name, so the labels fix the processing order. For ``identities`` the
    items are lemma ids in processing order. Every workload runs serially.
    """

    workload: str
    seed: int
    items: tuple[str, ...]
    labels: tuple[str, ...]

    @property
    def kind(self) -> str:
        return "identities" if self.workload == "identities" else "verify"


def make_sample(workload: str, seed: int, orders: dict[str, int]) -> Sample:
    """``orders`` maps every bundled group name to its order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    by_name = sorted(orders)
    if workload == "identities":
        items = list(LEMMA_IDS)
        rng.shuffle(items)
        return Sample(workload, seed, tuple(items), tuple(items))
    if workload == "crosscheck":
        items = [n for n in by_name if orders[n] <= CROSSCHECK_MAX_ORDER]
    else:
        items = list(STRUCTURE)
    rng.shuffle(items)
    labels = tuple(f"s{rank:02d}_{name}" for rank, name in enumerate(items))
    return Sample(workload, seed, tuple(items), labels)


def catalog_text(sample: Sample, presentations: dict) -> str:
    """The generated catalog of a verify sample: each bundled presentation
    under its label, in the catalog format ``import_file`` reads."""
    return "\n".join(
        dataclasses.replace(presentations[name], name=label).to_catalog_text()
        for name, label in zip(sample.items, sample.labels)
    )


def bundled_name(sample: Sample, label: str) -> Optional[str]:
    """The bundled group a catalog label stands for."""
    for name, lab in zip(sample.items, sample.labels):
        if lab == label:
            return name
    return None
