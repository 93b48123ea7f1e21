"""Set algebra, refinement analysis, and change tracing for requirement
catalogs that span multiple jurisdictions and products.

Every public name is served from the package root. The module
`reqlattice.analysis` and its names are imported on first use (PEP 562),
so a process that never asks for one, such as a `reqlattice sets`,
`optimize` or `export` call, never pays for that import.
"""

from .algebra import (
    Partition,
    RequirementSet,
    SharedRegulations,
    general_part,
    global_union,
    jurisdiction_regulations,
    jurisdiction_rl,
    partition_general_specific,
    product_union,
    requirements_for,
    rl_min,
    shared_regulations,
)
from .errors import (
    CatalogInvalidError,
    EmptyCatalogError,
    FocusForbiddenError,
    FocusRequiredError,
    ParseError,
    ReqlatticeError,
    SchemaError,
    UnknownIdError,
)
from .io import (
    GraphView,
    ViewKind,
    build_view,
    dumps,
    load,
    loads,
    render_dot,
    save,
    save_file,
    write_dot,
)
from .model import (
    ALL,
    AllScope,
    Catalog,
    Issue,
    Jurisdiction,
    Kind,
    Product,
    RefinementEdge,
    Regulation,
    Requirement,
    Severity,
    ValidationReport,
    find_warnings,
    validate,
)
from .refinement import (
    RefinementGraph,
    build_graph,
    is_weaker,
    optimize,
    oracle_maximal,
    strongest_global,
    strongest_product,
    strongest_rl,
    witnesses,
)

__version__ = "0.1.0"

# The names served from `reqlattice.analysis`, and the module itself.
_ANALYSIS = frozenset(
    {
        "analysis",
        "ImpactReport",
        "ImpactScope",
        "Overlap",
        "OverlapCase",
        "ReuseCluster",
        "ReuseReport",
        "change_impact",
        "classify_overlap",
        "consistency_diagnostics",
        "reuse_candidates",
    }
)


def __getattr__(name: str):
    if name not in _ANALYSIS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    # Not `from . import analysis`: its attribute check would call this
    # function again for the name "analysis".
    analysis = importlib.import_module(".analysis", __name__)
    return analysis if name == "analysis" else getattr(analysis, name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _ANALYSIS)
