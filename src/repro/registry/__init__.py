"""Named, user-extensible registries for the model's technologies.

Five registries — process nodes, integration technologies, D2D
interfaces, yield models and wafer geometries — unify the previously
hard-wired factory call sites behind name-based lookup with declarative
(JSON-ready) custom entries.  Each global registry can spawn scoped
child layers, which is how scenario and config documents introduce
per-document technologies without mutating process-wide state.

Registry names are honored uniformly across the stack: every non-figure
scenario study kind (``systems``, ``partition_sweep``,
``partition_grid``, ``montecarlo``, ``pareto``, ``sensitivity``,
``reuse``) and the CLI ``cost`` / ``sweep`` / ``montecarlo`` commands
accept ``yield_model`` / ``wafer_geometry`` names.  Resolution funnels
through one point — :meth:`repro.config.ConfigRegistries.die_cost_fn`,
which turns the named entries into a die-pricing override threaded into
:class:`~repro.engine.costengine.CostEngine` and
:class:`~repro.engine.fastportfolio.PortfolioEngine` entry points — so
an unknown name always raises the same
:class:`~repro.errors.ConfigError` listing the available entries.
Yield-model entries are *families*: parameters they leave open (defect
density, clustering) bind from the process node at pricing time.
"""

from repro.lazy import name_table

__getattr__, __dir__, __all__ = name_table(__name__, {
    "repro.registry.core": ("Registry", "singleton"),
    "repro.registry.d2d": (
        "D2DRegistry", "d2d_from_spec", "d2d_registry", "d2d_to_spec",
        "register_d2d",
    ),
    "repro.registry.geometries": (
        "GEOMETRY_FIELDS", "WaferGeometryRegistry", "register_wafer_geometry",
        "wafer_geometry_from_spec", "wafer_geometry_registry",
        "wafer_geometry_to_spec",
    ),
    "repro.registry.nodes": (
        "NODE_FIELDS", "NodeRegistry", "node_from_spec", "node_registry",
        "node_to_spec", "register_node",
    ),
    "repro.registry.technologies": (
        "TechnologyEntry", "TechnologyRegistry", "parse_flow",
        "register_technology", "technology_from_spec", "technology_registry",
        "technology_to_spec",
    ),
    "repro.registry.yieldmodels": (
        "YieldModelEntry", "YieldModelRegistry", "register_yield_model",
        "yield_model_from_spec", "yield_model_registry", "yield_model_to_spec",
    ),
})
