"""Bundled library of small p-group presentations, plus user import.

The bundle is a hand-curated data file (``data/bundled.cat``); every entry is
consistency-checked at load time.  No group-generation algorithm is included —
users can import further presentations in the same catalog format.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .pcgroup import PcError, PcPresentation, Violation, parse_catalog


class CatalogError(PcError):
    def __init__(self, message: str, violations: dict[str, list[Violation]] | None = None):
        super().__init__(message)
        self.violations = violations or {}


@dataclass(frozen=True)
class CatalogEntry:
    presentation: PcPresentation
    tags: frozenset[str] = field(default_factory=frozenset)
    source: str = "bundled"  # "bundled" | "imported"

    @property
    def name(self) -> str:
        return self.presentation.name

    @property
    def order(self) -> int:
        return self.presentation.order


# Structural labels for the bundled entries; tags are metadata only — every
# claim they encode is re-derived by tests (e.g. dihedral_2^m has class m-1).
_TAG_RULES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("cyclic_", ("cyclic", "abelian")),
    ("abelian_", ("abelian",)),
    ("heisenberg_3_x_c3", ("direct_product",)),
    ("heisenberg_", ("heisenberg", "extraspecial")),
    ("modular_27", ("modular", "extraspecial")),
    ("modular_125", ("modular", "extraspecial")),
    ("modular_", ("modular",)),
    ("dihedral_8", ("dihedral", "extraspecial")),
    ("dihedral_", ("dihedral", "maximal_class")),
    ("quaternion_8", ("quaternion", "extraspecial")),
    ("quaternion_", ("quaternion", "maximal_class")),
    ("semidihedral_", ("semidihedral", "maximal_class")),
    ("wreath_", ("wreath", "maximal_class")),
)

_ELEMENTARY = {
    "abelian_2_2",
    "abelian_2_2_2",
    "abelian_3_3",
    "abelian_3_3_3",
    "abelian_3_3_3_3",
    "abelian_5_5",
}


def _tags_for(name: str) -> frozenset[str]:
    tags: set[str] = set()
    for prefix, labels in _TAG_RULES:
        if name.startswith(prefix):
            tags.update(labels)
            break
    if name in _ELEMENTARY:
        tags.add("elementary_abelian")
    return frozenset(tags)


def _check_entries(presentations: list[PcPresentation], source: str) -> list[CatalogEntry]:
    bad: dict[str, list[Violation]] = {}
    entries = []
    for pres in presentations:
        if pres.violations:
            bad[pres.name] = list(pres.violations)
            continue
        entries.append(
            CatalogEntry(
                presentation=pres,
                tags=_tags_for(pres.name) if source == "bundled" else frozenset(),
                source=source,
            )
        )
    if bad:
        detail = "; ".join(
            f"{name}: {violations[0]}" for name, violations in bad.items()
        )
        raise CatalogError(f"inconsistent presentations rejected: {detail}", bad)
    return entries


def _bundled_presentations() -> list[PcPresentation]:
    text = resources.files("schurlab.data").joinpath("bundled.cat").read_text()
    return parse_catalog(text)


def load_bundled() -> list[CatalogEntry]:
    return _check_entries(_bundled_presentations(), source="bundled")


def find_bundled(name: str) -> Optional[CatalogEntry]:
    """The bundled group called ``name``, or None; only its presentation is
    consistency-checked."""
    for pres in _bundled_presentations():
        if pres.name == name:
            return _check_entries([pres], source="bundled")[0]
    return None


def import_file(path: str) -> list[CatalogEntry]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return _check_entries(parse_catalog(text), source="imported")
