"""Set algebra, refinement analysis, and change tracing for requirement
catalogs that span multiple jurisdictions and products.

Every public name is served from the package root. The modules
`reqlattice.analysis` and `reqlattice.refinement`, and their names, are
imported on first use (PEP 562), so a process that never asks for one
never pays for that import: a `reqlattice sets`, `optimize` or `export`
call never imports `analysis`, and a `reqlattice validate` call, which
builds no refinement graph, never imports `refinement`. Only the catalog
and its entities are dataclasses, whose generated methods a process
compiles on import; the records the library returns are `NamedTuple`s,
and `RefinementGraph` is a small slotted class.
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

__version__ = "0.1.0"

# Each name served from a module imported on first use, and each such
# module's own name, mapped to the module.
_LAZY = {
    **dict.fromkeys(
        (
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
        ),
        "analysis",
    ),
    **dict.fromkeys(
        (
            "refinement",
            "RefinementGraph",
            "build_graph",
            "is_weaker",
            "optimize",
            "oracle_maximal",
            "strongest_global",
            "strongest_product",
            "strongest_rl",
            "witnesses",
        ),
        "refinement",
    ),
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    # Not `from . import analysis`: its attribute check would call this
    # function again for the module's own name.
    module = importlib.import_module("." + module_name, __name__)
    return module if name == module_name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())
