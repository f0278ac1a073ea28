"""Bundled library of small p-group presentations, plus user import.

The bundle is a hand-curated data file (``data/bundled.cat``); every entry is
consistency-checked at load time.  No group-generation algorithm is included —
users can import further presentations in the same catalog format.
"""
from __future__ import annotations

from dataclasses import dataclass
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

    @property
    def name(self) -> str:
        return self.presentation.name

    @property
    def order(self) -> int:
        return self.presentation.order


def _check_entries(presentations: list[PcPresentation]) -> list[CatalogEntry]:
    bad: dict[str, list[Violation]] = {}
    entries = []
    for pres in presentations:
        if pres.violations:
            bad[pres.name] = list(pres.violations)
            continue
        entries.append(CatalogEntry(pres))
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
    return _check_entries(_bundled_presentations())


def find_bundled(name: str) -> Optional[CatalogEntry]:
    """The bundled group called ``name``, or None; only its presentation is
    consistency-checked."""
    for pres in _bundled_presentations():
        if pres.name == name:
            return _check_entries([pres])[0]
    return None


def import_file(path: str) -> list[CatalogEntry]:
    """The groups of a catalog file, UTF-8 with or without a byte-order mark
    (stripped here: the ``utf-8-sig`` codec costs a module import)."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return _check_entries(parse_catalog(text.removeprefix("\ufeff")))
