"""Set algebra, refinement analysis, and change tracing for requirement
catalogs that span multiple jurisdictions and products."""

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
from .analysis import (
    ImpactReport,
    ImpactScope,
    Overlap,
    OverlapCase,
    ReuseCluster,
    ReuseReport,
    change_impact,
    classify_overlap,
    consistency_diagnostics,
    reuse_candidates,
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
