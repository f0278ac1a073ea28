"""schurlab: exact-arithmetic workbench for exponent bounds on Schur
multipliers, covers, and exterior squares of finite p-groups."""

from .bounds import emit_tables
from .catalog import CatalogEntry, CatalogError, import_file, load_bundled
from .identities import LEMMA_IDS, alpha, er_chain, verify_collection_lemma
from .multiplier import (
    DEFAULT_ORACLE_CAP,
    AbelianInvariants,
    CoverResult,
    bar_homology,
    exterior_exponent,
    schur_cover,
    schur_multiplier,
)
from .pcgroup import (
    GroupFlags,
    PcError,
    PcGroup,
    PcPresentation,
    Subgroup,
    check_consistency,
    group_of,
    make_presentation,
    parse_catalog,
)
from .suites import SuiteReport, run_suites
from .verifier import (
    RULE_IDS,
    GroupProfile,
    RunConfig,
    RuleResult,
    evaluate_rules,
    profile,
    run,
)

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
