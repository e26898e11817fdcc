"""``repro cost``, and the design-point flags the model and study
commands share with it.

Module scope imports only the packaging data table that names the
``--integration`` choices; the cost query is imported when the command
runs.
"""

from __future__ import annotations

import argparse

from repro.data.packaging_costs import MULTICHIP_TECH_NAMES


def add_design_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--area", type=float, required=True,
                        help="total module area in mm^2")
    parser.add_argument("--node", default="7nm",
                        help="process node (default: 7nm)")
    parser.add_argument("--chiplets", type=int, default=2,
                        help="number of equal chiplets (default: 2)")
    parser.add_argument("--d2d", type=float, default=0.10,
                        help="D2D fraction of chip area (default: 0.10)")
    parser.add_argument("--quantity", type=float, default=500_000,
                        help="production quantity (default: 500k)")


def add_yield_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--yield-model",
        default="",
        metavar="NAME",
        help="price dies with a registered yield-model family "
        "(see 'techs' for the registry)",
    )
    parser.add_argument(
        "--wafer-geometry",
        default="",
        metavar="NAME",
        help="price dies on a registered wafer geometry "
        "(see 'techs' for the registry)",
    )


def _arguments(parser: argparse.ArgumentParser) -> None:
    add_design_arguments(parser)
    parser.add_argument(
        "--integration",
        choices=["soc", *MULTICHIP_TECH_NAMES],
        default="soc",
        help="integration scheme (default: soc)",
    )
    add_yield_arguments(parser)


def _cost(args: argparse.Namespace) -> int:
    # The query POST /v1/cost also runs, so `repro cost` and the
    # service are the same evaluation and the same table — parity by
    # construction (tools/service_smoke.py holds the line).
    from repro.explore.costquery import CostRequest, cost_table, evaluate_cost

    request = CostRequest(
        area=args.area,
        node=args.node,
        integration=args.integration,
        chiplets=args.chiplets,
        d2d_fraction=args.d2d,
        quantity=args.quantity,
        yield_model=args.yield_model or "",
        wafer_geometry=args.wafer_geometry or "",
    )
    print(cost_table(evaluate_cost(request)).render())
    return 0


COMMANDS = {"cost": (_arguments, _cost)}
