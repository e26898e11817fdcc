"""Shared Hypothesis strategies for the property suite.

One vocabulary of generated model objects — nodes, systems across every
packaging scheme, portfolios, design spaces, scenario documents — so
each property module states *invariants*, not object construction.
Ranges are chosen to keep every generated input valid (dies fit on the
wafer, technologies support the chiplet counts, registries resolve) and
cheap to evaluate, so example budgets buy coverage instead of runtime.
"""

from hypothesis import strategies as st

from repro.core.module import Module
from repro.core.system import multichip
from repro.core.system import chiplet as make_chiplet
from repro.d2d.overhead import FractionOverhead
from repro.explore.partition import partition_monolith, soc_reference
from repro.packaging.assembly import AssemblyFlow
from repro.packaging.info import info
from repro.packaging.interposer import interposer_25d
from repro.packaging.mcm import mcm
from repro.packaging.soc import soc_package
from repro.packaging.stacked3d import stacked_3d
from repro.process.catalog import get_node
from repro.process.node import ProcessNode
from repro.reuse.portfolio import Portfolio
from repro.scenario.spec import MonteCarloStudy, ScenarioSpec, SearchStudy
from repro.search.space import DesignSpace

# -- scalar ranges shared with the core invariant tests --------------------

densities = st.floats(min_value=0.0, max_value=1.0)
clusters = st.floats(min_value=0.1, max_value=100.0)
areas = st.floats(min_value=1.0, max_value=2000.0)

#: Catalog nodes every registry resolves out of the box.
CATALOG_NODES = ("14nm", "10nm", "7nm", "5nm")

#: Multi-chip integration technologies by registry name.
TECHNOLOGIES = {"mcm": mcm, "info": info, "2.5d": interposer_25d}

#: Every built-in technology and flow, SoC and 3D included.
BUILTIN_TECHNOLOGIES = {
    "soc": soc_package,
    "mcm": mcm,
    "info-last": info,
    "info-first": lambda: info(flow=AssemblyFlow.CHIP_FIRST),
    "2.5d-last": interposer_25d,
    "2.5d-first": lambda: interposer_25d(flow=AssemblyFlow.CHIP_FIRST),
    "2.5d-active": lambda: interposer_25d(active=True),
    "3d": stacked_3d,
}

#: Chip areas that no binary float holds exactly (tenths that are not
#: halves), so every sum of them rounds and its order shows in the bits.
inexact_areas = (
    st.integers(min_value=10, max_value=4000)
    .filter(lambda tenths: tenths % 5)
    .map(lambda tenths: tenths / 10.0)
)

catalog_node_names = st.sampled_from(CATALOG_NODES)
catalog_nodes = catalog_node_names.map(get_node)
technology_names = st.sampled_from(sorted(TECHNOLOGIES))

#: Functional module areas small enough that every partition's die
#: (area/n plus D2D overhead) fits each technology's reach.
module_areas = st.floats(min_value=50.0, max_value=800.0)

#: Search block sizes (``repro.search.evaluate.BATCH_SIZE``): one that
#: splits every multi-area space, one that rarely does, the default.
batch_sizes = st.sampled_from((2, 7, 4096))


@st.composite
def process_nodes(draw, name: str = "gen-node") -> ProcessNode:
    """A random (valid) logic :class:`ProcessNode`."""
    return ProcessNode(
        name=name,
        defect_density=draw(st.floats(min_value=0.01, max_value=0.3)),
        cluster_param=draw(st.floats(min_value=1.0, max_value=6.0)),
        wafer_price=draw(st.floats(min_value=2_000.0, max_value=20_000.0)),
        transistor_density=draw(st.floats(min_value=20.0, max_value=200.0)),
        km_per_mm2=draw(st.floats(min_value=0.0, max_value=50_000.0)),
        kc_per_mm2=draw(st.floats(min_value=0.0, max_value=20_000.0)),
        mask_set_cost=draw(st.floats(min_value=0.0, max_value=5e6)),
        ip_fixed_cost=draw(st.floats(min_value=0.0, max_value=5e6)),
        d2d_interface_nre=draw(st.floats(min_value=0.0, max_value=1e6)),
    )


@st.composite
def technologies(draw):
    """A fresh instance of one multi-chip integration technology."""
    return TECHNOLOGIES[draw(technology_names)]()


@st.composite
def systems(draw, schemes: "tuple[str, ...] | None" = None):
    """A priced-ready :class:`System` across all packaging schemes.

    ``schemes`` restricts the draw (e.g. ``("mcm", "2.5d")``); the
    default covers the monolithic SoC plus every multi-chip technology.
    """
    scheme = draw(
        st.sampled_from(schemes or ("soc", "mcm", "info", "2.5d"))
    )
    node = get_node(draw(catalog_node_names))
    area = draw(module_areas)
    quantity = draw(st.floats(min_value=1e3, max_value=1e7))
    if scheme == "soc":
        return soc_reference(area, node, quantity=quantity)
    return partition_monolith(
        area,
        node,
        draw(st.integers(min_value=2, max_value=4)),
        TECHNOLOGIES[scheme](),
        d2d_fraction=draw(st.floats(min_value=0.0, max_value=0.3)),
        quantity=quantity,
    )


@st.composite
def portfolios(draw) -> Portfolio:
    """A reuse portfolio sharing a chiplet pool across 2-4 systems."""
    node = get_node(draw(catalog_node_names))
    tech = TECHNOLOGIES[draw(technology_names)]()
    d2d = FractionOverhead(draw(st.floats(min_value=0.0, max_value=0.3)))
    pool = [
        make_chiplet(
            f"pool-chiplet{index}",
            [Module(f"pool-module{index}", area, node)],
            node,
            d2d,
        )
        for index, area in enumerate(
            draw(
                st.lists(
                    st.floats(min_value=40.0, max_value=300.0),
                    min_size=1,
                    max_size=3,
                )
            )
        )
    ]
    n_systems = draw(st.integers(min_value=2, max_value=4))
    members = []
    for index in range(n_systems):
        chips = draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=3)
        )
        members.append(
            multichip(
                f"member{index}",
                chips,
                tech,
                quantity=draw(st.floats(min_value=1e3, max_value=1e6)),
            )
        )
    return Portfolio(members)


@st.composite
def design_spaces(draw, test_cost: bool = False) -> DesignSpace:
    """A small (but arbitrary) :class:`DesignSpace`.

    Kept to a handful of candidates so exhaustive oracles and O(n^2)
    frontier cross-checks stay cheap inside a 200-example budget.
    """
    n_areas = draw(st.integers(min_value=1, max_value=3))
    space_areas = tuple(
        100.0 + 50.0 * draw(st.integers(min_value=0, max_value=12))
        for _ in range(n_areas)
    )
    return DesignSpace(
        module_areas=space_areas,
        nodes=tuple(
            draw(
                st.lists(
                    catalog_node_names, min_size=1, max_size=2, unique=True
                )
            )
        ),
        technologies=tuple(
            draw(
                st.lists(
                    st.sampled_from(("mcm", "2.5d")),
                    min_size=1,
                    max_size=2,
                    unique=True,
                )
            )
        ),
        chiplet_counts=(2, 3),
        d2d_fractions=(draw(st.floats(min_value=0.0, max_value=0.2)),),
        quantity=draw(st.floats(min_value=1e4, max_value=1e6)),
        top_k=draw(st.integers(min_value=0, max_value=3)),
        include_soc=draw(st.booleans()),
        test_cost={} if test_cost else None,
    )


@st.composite
def montecarlo_studies(draw) -> MonteCarloStudy:
    """A small ``montecarlo`` scenario study."""
    technology = draw(st.sampled_from(("soc",) + tuple(sorted(TECHNOLOGIES))))
    return MonteCarloStudy(
        name="mc",
        module_area=draw(module_areas),
        node=draw(catalog_node_names),
        technology=technology,
        n_chiplets=(
            1 if technology == "soc"
            else draw(st.integers(min_value=2, max_value=4))
        ),
        d2d_fraction=draw(st.floats(min_value=0.0, max_value=0.3)),
        draws=draw(st.integers(min_value=2, max_value=8)),
        sigma=draw(st.floats(min_value=0.01, max_value=0.4)),
        seed=draw(st.integers(min_value=0, max_value=2**31 - 1)),
    )


@st.composite
def search_studies(draw) -> SearchStudy:
    """A small ``search`` scenario study wrapping :func:`design_spaces`."""
    space = draw(design_spaces())
    return SearchStudy(
        name="search",
        module_areas=space.module_areas,
        nodes=space.nodes,
        technologies=space.technologies,
        chiplet_counts=space.chiplet_counts,
        d2d_fractions=space.d2d_fractions,
        quantity=space.quantity,
        top_k=space.top_k,
        include_soc=space.include_soc,
    )


@st.composite
def scenario_specs(draw) -> ScenarioSpec:
    """A whole scenario document: optional custom registry entries plus
    1-2 studies (config-v2 registry payloads shared with the schema)."""
    nodes = {}
    if draw(st.booleans()):
        nodes["custom-node"] = {
            "base": draw(catalog_node_names),
            "defect_density": draw(st.floats(min_value=0.01, max_value=0.3)),
        }
    studies = [draw(montecarlo_studies())]
    if draw(st.booleans()):
        studies.append(draw(search_studies()))
    if nodes:
        # Point the first study at the custom node so the registry
        # section is actually exercised end to end.
        studies[0] = MonteCarloStudy(
            **{
                **{
                    f: getattr(studies[0], f)
                    for f in studies[0].__dataclass_fields__
                },
                "node": "custom-node",
            }
        )
    return ScenarioSpec(
        name="generated",
        description=draw(st.sampled_from(("", "property-generated"))),
        nodes=nodes,
        studies=tuple(studies),
    )
