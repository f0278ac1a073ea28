"""schurlab: exact-arithmetic workbench for exponent bounds on Schur
multipliers, covers, and exterior squares of finite p-groups.

The public names below resolve on first use (PEP 562), so importing one
submodule, say ``schurlab.catalog``, loads only what that submodule needs.
A name is looked up in its home module on every access and never stored
here, so a wrapper patched into the home module is seen through the package
too, and is gone from it once the original is put back.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "AbelianInvariants",
    "CatalogEntry",
    "CatalogError",
    "CoverResult",
    "DEFAULT_ORACLE_CAP",
    "GroupFlags",
    "GroupProfile",
    "LEMMA_IDS",
    "PcError",
    "PcGroup",
    "PcPresentation",
    "RULE_IDS",
    "RuleResult",
    "RunConfig",
    "Subgroup",
    "SuiteReport",
    "alpha",
    "bar_homology",
    "check_consistency",
    "emit_tables",
    "er_chain",
    "evaluate_rules",
    "exterior_exponent",
    "group_of",
    "import_file",
    "load_bundled",
    "make_presentation",
    "parse_catalog",
    "profile",
    "run",
    "run_suites",
    "schur_cover",
    "schur_multiplier",
    "verify_collection_lemma",
]

_HOMES = {
    "bounds": ("emit_tables",),
    "catalog": ("CatalogEntry", "CatalogError", "import_file", "load_bundled"),
    "identities": ("LEMMA_IDS", "alpha", "er_chain", "verify_collection_lemma"),
    "multiplier": (
        "DEFAULT_ORACLE_CAP",
        "AbelianInvariants",
        "CoverResult",
        "bar_homology",
        "exterior_exponent",
        "schur_cover",
        "schur_multiplier",
    ),
    "pcgroup": (
        "GroupFlags",
        "PcError",
        "PcGroup",
        "PcPresentation",
        "Subgroup",
        "check_consistency",
        "group_of",
        "make_presentation",
        "parse_catalog",
    ),
    "suites": ("SuiteReport", "run_suites"),
    "verifier": (
        "RULE_IDS",
        "GroupProfile",
        "RunConfig",
        "RuleResult",
        "evaluate_rules",
        "profile",
        "run",
    ),
}
# public name -> the submodule that defines it
_HOME = {name: module for module, names in _HOMES.items() for name in names}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
