"""Model commands: ``nodes``, ``techs``, ``compare``, ``payback``,
``sweep`` and ``portfolio``.

Each runs the cost model in-process on one design point, one area
range or one portfolio document; the model is imported inside the
command that runs.
"""

from __future__ import annotations

import argparse
import math

from repro.cli.cost import add_design_arguments, add_yield_arguments
from repro.data.packaging_costs import MULTICHIP_TECH_NAMES
from repro.errors import InvalidParameterError
from repro.reporting.table import Table


def _no_arguments(_parser: argparse.ArgumentParser) -> None:
    pass


def _nodes(_args: argparse.Namespace) -> int:
    from repro.process.catalog import NODES
    from repro.registry.nodes import node_registry

    table = Table(
        ["node", "D0 (/cm^2)", "c", "wafer ($)", "density (MTr/mm^2)",
         "mask set ($M)", "kind"],
        title="Process-node catalog",
        precision=2,
    )
    registry = node_registry()
    entries = list(NODES.values()) + [
        registry.get(name) for name in registry.names() if name not in NODES
    ]
    for node in entries:
        table.add_row(
            [
                node.name,
                node.defect_density,
                node.cluster_param,
                node.wafer_price,
                node.transistor_density,
                node.mask_set_cost / 1e6,
                "packaging" if node.is_packaging_node else "logic",
            ]
        )
    print(table.render())
    return 0


def _techs(_args: argparse.Namespace) -> int:
    from repro.registry.d2d import d2d_registry
    from repro.registry.geometries import wafer_geometry_registry
    from repro.registry.technologies import technology_registry
    from repro.registry.yieldmodels import yield_model_registry

    techs = Table(
        ["name", "label", "base", "description"],
        title="Integration-technology registry",
    )
    registry = technology_registry()
    for name, entry in registry.items():
        techs.add_row(
            [name, entry.label, entry.base or name, entry.description]
        )
    print(techs.render())
    print()
    phys = Table(
        ["name", "carrier", "GB/s per mm^2", "pJ/bit", "reach (mm)"],
        title="D2D interface registry",
    )
    for name, profile in d2d_registry().items():
        phys.add_row(
            [name, profile.carrier, profile.bandwidth_density,
             profile.energy_pj_per_bit, profile.reach_mm]
        )
    print(phys.render())
    print()
    models = Table(
        ["name", "family", "params", "gross", "description"],
        title="Yield-model registry",
    )
    for name, entry in yield_model_registry().items():
        models.add_row(
            [name, entry.model,
             ", ".join(f"{k}={v:g}" for k, v in entry.params.items()) or "(node)",
             entry.gross_factor, entry.description]
        )
    print(models.render())
    print()
    geometries = Table(
        ["name", "diameter (mm)", "edge excl (mm)", "scribe (mm)"],
        title="Wafer-geometry registry",
        precision=1,
    )
    for name, geometry in wafer_geometry_registry().items():
        geometries.add_row(
            [name, geometry.diameter, geometry.edge_exclusion,
             geometry.scribe_width]
        )
    print(geometries.render())
    return 0


def _compare(args: argparse.Namespace) -> int:
    from repro.experiments.common import multichip_integrations
    from repro.explore.decide import choose_integration
    from repro.process.catalog import get_node

    node = get_node(args.node)
    choices = choose_integration(
        args.area,
        node,
        args.chiplets,
        args.quantity,
        list(multichip_integrations().values()),
        d2d_fraction=args.d2d,
    )
    table = Table(
        ["rank", "scheme", "RE/unit", "NRE/unit", "total/unit"],
        title=(
            f"Integration ranking: {args.area:.0f} mm^2 @ {node.name}, "
            f"{args.chiplets} chiplets, {args.quantity:.0f} units"
        ),
    )
    for rank, choice in enumerate(choices, start=1):
        table.add_row(
            [rank, choice.label, choice.re_per_unit, choice.nre_per_unit,
             choice.total_per_unit]
        )
    print(table.render())
    return 0


def _payback_arguments(parser: argparse.ArgumentParser) -> None:
    add_design_arguments(parser)
    parser.add_argument(
        "--integration",
        choices=list(MULTICHIP_TECH_NAMES),
        default="mcm",
        help="multi-chip scheme (default: mcm)",
    )


def _payback(args: argparse.Namespace) -> int:
    from repro.explore.decide import multichip_payback_quantity
    from repro.explore.partition import partition_monolith, soc_reference
    from repro.process.catalog import get_node
    from repro.registry.technologies import technology_registry

    node = get_node(args.node)
    soc_system = soc_reference(args.area, node)
    multi = partition_monolith(
        args.area,
        node,
        args.chiplets,
        technology_registry().create(args.integration),
        d2d_fraction=args.d2d,
    )
    quantity = multichip_payback_quantity(soc_system, multi)
    if quantity is None:
        print(
            f"{args.integration.upper()} with {args.chiplets} chiplets never "
            f"pays back against the monolithic SoC for this design point."
        )
    else:
        print(
            f"{args.integration.upper()} with {args.chiplets} chiplets pays "
            f"back at a production quantity of ~{quantity:,.0f} units."
        )
    return 0


def _sweep_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--node", default="7nm")
    parser.add_argument("--chiplets", type=int, default=2)
    parser.add_argument("--d2d", type=float, default=0.10)
    parser.add_argument("--start", type=float, default=100)
    parser.add_argument("--stop", type=float, default=900)
    parser.add_argument("--step", type=float, default=100)
    parser.add_argument("--csv", action="store_true",
                        help="emit CSV instead of a table")
    add_yield_arguments(parser)


def _sweep(args: argparse.Namespace) -> int:
    from repro.config import ConfigRegistries
    from repro.engine.costengine import CostEngine
    from repro.experiments.common import multichip_integrations
    from repro.packaging.soc import soc_package
    from repro.process.catalog import get_node
    from repro.reporting.series import FigureData, Series

    die_cost_fn = ConfigRegistries().die_cost_fn(
        args.yield_model, args.wafer_geometry, context="sweep"
    )
    engine = CostEngine()
    node = get_node(args.node)
    for flag in ("start", "stop", "step"):
        value = getattr(args, flag)
        if not math.isfinite(value):
            raise InvalidParameterError(
                f"--{flag} must be a finite number, got {value:g}"
            )
    step = int(args.step)
    if step == 0:
        raise InvalidParameterError(
            f"--step must be a whole number of mm^2 other than 0, "
            f"got {args.step:g}"
        )
    areas = list(range(int(args.start), int(args.stop) + 1, step))

    def column(label, integration, count, soc_for_one=False) -> list[float]:
        grid = engine.partition_grid(
            label, areas, [count], node, integration,
            d2d_fraction=args.d2d, soc_for_one=soc_for_one,
            die_cost_fn=die_cost_fn,
        )
        return [point.value.total for point in grid.points]

    columns = {"SoC": column("SoC", soc_package(), 1, soc_for_one=True)}
    for label, tech in multichip_integrations().items():
        columns[label] = column(label, tech, args.chiplets)
    figure = FigureData(
        title=f"RE cost vs area @ {node.name}",
        x_label="area_mm2",
        xs=tuple(areas),
        series=tuple(Series.of(name, ys) for name, ys in columns.items()),
    )
    if args.csv:
        print(figure.to_csv(), end="")
    else:
        table = Table(["area_mm2"] + list(columns), title=figure.title)
        for index, area in enumerate(areas):
            table.add_row([area] + [columns[name][index] for name in columns])
        print(table.render())
    return 0


def _portfolio_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="path to a portfolio JSON document")


def _portfolio(args: argparse.Namespace) -> int:
    from repro.config import load_portfolio

    portfolio = load_portfolio(args.file)
    table = Table(
        ["system", "quantity", "RE/unit", "NRE/unit", "total/unit"],
        title=f"Portfolio report: {args.file}",
    )
    for system in portfolio.systems:
        cost = portfolio.amortized_cost(system)
        table.add_row(
            [system.name, f"{system.quantity:.0f}", cost.re_total,
             cost.nre_total, cost.total]
        )
    table.add_row(
        ["(average)", f"{portfolio.total_quantity:.0f}", "", "",
         portfolio.average_cost()]
    )
    print(table.render())
    return 0


COMMANDS = {
    "nodes": (_no_arguments, _nodes),
    "techs": (_no_arguments, _techs),
    "compare": (add_design_arguments, _compare),
    "payback": (_payback_arguments, _payback),
    "sweep": (_sweep_arguments, _sweep),
    "portfolio": (_portfolio_arguments, _portfolio),
}
