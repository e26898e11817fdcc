"""Vectorized (and scalar-fallback) design-space evaluation.

Evaluates every candidate of a :class:`~repro.search.space.DesignSpace`
in dense blocks, never building a ``System`` object on the hot path,
with results bit-identical to the naive per-candidate pipeline
(``repro.search.oracle``).  The replicated arithmetic and its exactness
arguments:

* **Chip area** — equal share plus fractional D2D overhead, the exact
  expressions of ``partition_monolith`` / ``FractionOverhead``.
* **Die cost** — the closed form of ``repro.wafer.die.die_cost`` under
  the paper's default geometry/yield model.  numpy float64 multiply /
  divide / subtract / ``sqrt`` / ``floor`` are IEEE-754 correctly
  rounded, hence bit-identical to the scalar ops; the one transcendental
  (the negative-binomial ``**``) runs through Python's libm ``pow`` per
  element, never numpy's SIMD ``power``, because the two can differ in
  the last ulp.  A registry die-cost override (named yield model /
  wafer geometry) is priced through the override callable per unique
  die instead — same calls the oracle makes.
* **Packaging** — the technology's packaging coefficients per
  (technology, count, area) via
  :func:`~repro.engine.packaging_affine.linearize_packaging`, shared
  across the node axis; the KGD waste column is the same ``kgd *
  retries`` multiply the technology's own itemized cost makes.
* **Accumulation order** — per-chip sums replicate the
  ``compute_re_cost`` / ``compute_system_nre`` loops exactly (n
  repeated additions from zero; ``x * 1 == x``), and every composite
  total keeps the dataclass properties' association, e.g.
  ``(raw + defects) + ((raw_pkg + pkg_defects) + wasted)``.
* **Test cost** — mirrors ``compute_tested_re_cost``: always priced on
  the *default* die model (that function takes no override), KGD-grade
  sort for chiplets, package-test attempts inferred from the
  default-priced KGD waste.

``tests/test_search_engine.py`` holds every metric bit-equal to the
oracle across schemes, technologies, nodes, overrides and the scalar
(no-numpy) path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from repro.config import ConfigRegistries
from repro.engine.packaging_affine import linearize_packaging
from repro.errors import ConfigError, InvalidParameterError, RegistryError
from repro.packaging.base import IntegrationTech
from repro.packaging.soc import soc_package
from repro.process.node import ProcessNode
from repro.search.space import CandidateGroup, DesignSpace
from repro.wafer.die import DieCost

try:  # evaluation vectorizes with numpy; falls back to pure Python
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: (node, area) -> DieCost pricing override (registry-resolved).
DieCostFn = Callable[[ProcessNode, float], DieCost]


@dataclass(frozen=True)
class EvalBlock:
    """One evaluated slice: a candidate group's module-area chunk.

    ``start`` is the canonical index of the first row; the block covers
    ``start .. start + len(areas) - 1`` contiguously.  ``metrics`` maps
    each metric name of ``space.metrics`` to a dense column — a numpy
    float64 array when numpy is available, a list of Python floats
    otherwise.  Columns stay native so consumers can keep vectorizing;
    convert individual entries with ``float()`` before serializing.
    """

    group: CandidateGroup
    start: int
    areas: tuple[float, ...]
    metrics: Mapping[str, Sequence[float]]

    def __len__(self) -> int:
        return len(self.areas)


class SpaceEvaluator:
    """Streams a design space's candidates through dense evaluation.

    Resolves the space's registry names once (unknown names raise
    :class:`~repro.errors.ConfigError` listing the available entries,
    prefixed with ``context``) and validates every (technology, count)
    pairing up front, then yields :class:`EvalBlock` slices of at most
    ``space.batch_size`` candidates.
    """

    def __init__(
        self,
        space: DesignSpace,
        registries: ConfigRegistries | None = None,
        die_cost_fn: DieCostFn | None = None,
        context: str = "search",
    ):
        registries = registries if registries is not None else ConfigRegistries()
        self.space = space
        self.die_cost_fn = die_cost_fn
        self.test_model = space.test_model()
        try:
            self.nodes = {
                name: registries.nodes.resolve(name) for name in space.nodes
            }
            self.technologies = {
                name: registries.technologies.create(name)
                for name in space.technologies
            }
        except RegistryError as error:
            raise ConfigError(f"{context}: {error}") from None
        for name, technology in self.technologies.items():
            for count in space.chiplet_counts:
                if not technology.supports_chip_count(count):
                    raise InvalidParameterError(
                        f"{technology.label} cannot hold {count} chips"
                    )
        self._soc_tech = soc_package() if space.include_soc else None
        self._groups = {
            (group.scheme, group.chiplets, group.d2d_fraction, group.node):
                group
            for group in space.groups()
        }

    # ------------------------------------------------------------------

    def blocks(self) -> Iterator[EvalBlock]:
        """Every candidate of the space, evaluated in canonical-order
        groups chunked by ``batch_size`` along the module-area axis."""
        space = self.space
        areas = [float(area) for area in space.module_areas]
        for start in range(0, len(areas), space.batch_size):
            chunk = areas[start:start + space.batch_size]
            if space.include_soc:
                packs = {"": _PackColumns(self._soc_tech, 1, chunk)}
                for node_name in space.nodes:
                    yield from self._node_blocks(
                        1, 0.0, node_name, chunk, start, packs, soc=True
                    )
            for count in space.chiplet_counts:
                for fraction in space.d2d_fractions:
                    share, chip_areas = _chip_areas(chunk, count, fraction)
                    packs = {
                        name: _PackColumns(technology, count, chip_areas)
                        for name, technology in self.technologies.items()
                    }
                    for node_name in space.nodes:
                        yield from self._node_blocks(
                            count, fraction, node_name, chunk, start, packs,
                            soc=False, share=share, chip_areas=chip_areas,
                        )

    # ------------------------------------------------------------------

    def _node_blocks(
        self,
        count: int,
        fraction: float,
        node_name: str,
        module_areas: list,
        area_start: int,
        packs: Mapping[str, "_PackColumns"],
        soc: bool,
        share=None,
        chip_areas=None,
    ) -> Iterator[EvalBlock]:
        """Blocks of one (count, fraction, node) slice, per technology.

        Die pricing and per-chip accumulations are node-level work
        shared across the technology axis; only the packaging/footprint
        columns differ per technology.
        """
        space = self.space
        node = self.nodes[node_name]
        if soc:
            chip_areas = _soc_chip_areas(module_areas)
            share = chip_areas
        chiplet = not soc and fraction > 0.0
        if self.die_cost_fn is None:
            die = _die_columns_default(node, chip_areas)
            die_default = die
        else:
            die = _die_columns_override(node, chip_areas, self.die_cost_fn)
            die_default = (
                _die_columns_default(node, chip_areas)
                if self.test_model is not None
                else None
            )
        raw_chips, chip_defects, kgd, silicon = _accumulate(
            count, die.raw, die.defect, die.total, chip_areas
        )
        module_unit = _scale(share, node.km_per_mm2)
        chip_unit = _axpb(chip_areas, node.kc_per_mm2, node.fixed_chip_nre)
        modules_nre, chips_nre = _accumulate(count, module_unit, chip_unit)
        d2d_total = node.d2d_interface_nre if chiplet else 0
        factor = 1.0 / space.quantity
        d2d_amortized = d2d_total * factor

        test = None
        if self.test_model is not None:
            test = self._test_columns(
                count, chiplet, chip_areas, die_default
            )

        chips_total = _add(raw_chips, chip_defects)
        for name, pack in packs.items():
            re_total = _add(chips_total, _add(pack.fixed, pack.wasted(kgd)))
            nre_unit = _shift(
                _add(
                    _add(
                        _scale(modules_nre, factor), _scale(chips_nre, factor)
                    ),
                    _scale(pack.nre, factor),
                ),
                d2d_amortized,
            )
            metrics = {
                "re": re_total,
                "nre": _scale(nre_unit, space.quantity),
                "total": _add(re_total, nre_unit),
                "silicon_area": silicon,
                "footprint": pack.footprint,
            }
            if test is not None:
                sort_total, chips_total_default, kgd_default = test
                wasted_default = pack.wasted(kgd_default)
                attempts = _attempts(chips_total_default, wasted_default)
                package_test = _scale(
                    attempts, self.test_model.package_test_seconds
                    * (self.test_model.tester_cost_per_hour / 3600.0)
                )
                metrics["test_cost"] = _add(sort_total, package_test)
            scheme = "soc" if soc else name
            group = self._groups[(scheme, count, fraction, node_name)]
            yield EvalBlock(
                group=group,
                start=group.base_index + area_start,
                areas=tuple(module_areas),
                metrics=metrics,
            )

    def _test_columns(self, count, chiplet, chip_areas, die_default):
        """Node-level test columns: per-unit wafer sort plus the
        default-priced KGD accumulations the attempt factor needs."""
        model = self.test_model
        per_second = model.tester_cost_per_hour / 3600.0
        seconds = _scale(chip_areas, model.sort_seconds_per_mm2)
        if chiplet:
            seconds = _scale(seconds, model.kgd_multiplier)
        sort_unit = _scale(seconds, per_second)
        per_good = _div(sort_unit, die_default.die_yield)
        (sort_total,) = _accumulate(count, per_good)
        raw_default, defect_default, kgd_default, _unused = _accumulate(
            count, die_default.raw, die_default.defect, die_default.total,
            chip_areas,
        )
        chips_total_default = _add(raw_default, defect_default)
        return sort_total, chips_total_default, kgd_default


# ----------------------------------------------------------------------
# per-area column builders
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _DieColumns:
    raw: Sequence[float]
    defect: Sequence[float]
    total: Sequence[float]
    die_yield: Sequence[float]


def _die_columns_default(node: ProcessNode, chip_areas) -> _DieColumns:
    """Closed form of ``die_cost`` under the node-default geometry and
    negative-binomial model (the exact expressions, in the exact order,
    of ``WaferGeometry.dies_per_wafer`` and ``NegativeBinomialYield``)."""
    usable = node.wafer_diameter - 2.0 * 0.0
    gross_factor = math.pi * (usable / 2.0) ** 2
    edge_factor = math.pi * usable
    exponent = -node.cluster_param
    if _np is not None:
        table = _np.asarray(chip_areas, dtype=float)
        dies = _np.floor(
            gross_factor / table - edge_factor / _np.sqrt(2.0 * table)
        )
        small = dies <= 0
        if small.any():
            _die_too_large(float(table[small][0]), node)
        defects = (node.defect_density * table) / 100.0
        bases = 1.0 + defects / node.cluster_param
        # libm pow per element, never numpy's SIMD power (last-ulp parity)
        die_yield = _np.array(
            [base ** exponent for base in bases.tolist()], dtype=float
        )
        raw = node.wafer_price / dies
        total = raw / die_yield
        return _DieColumns(raw, total - raw, total, die_yield)
    raws, defects_out, totals, yields = [], [], [], []
    for area in chip_areas:
        dies = max(
            0,
            math.floor(
                gross_factor / area - edge_factor / math.sqrt(2.0 * area)
            ),
        )
        if dies <= 0:
            _die_too_large(area, node)
        defects = node.defect_density * area / 100.0
        die_yield = (1.0 + defects / node.cluster_param) ** exponent
        raw = node.wafer_price / dies
        total = raw / die_yield
        raws.append(raw)
        defects_out.append(total - raw)
        totals.append(total)
        yields.append(die_yield)
    return _DieColumns(raws, defects_out, totals, yields)


def _die_too_large(area: float, node: ProcessNode) -> None:
    raise InvalidParameterError(
        f"die of {area:.0f} mm^2 does not fit on a "
        f"{node.wafer_diameter:.0f} mm wafer"
    )


def _die_columns_override(
    node: ProcessNode, chip_areas, die_cost_fn: DieCostFn
) -> _DieColumns:
    """Per-unique-die pricing through a registry override callable."""
    costs = [die_cost_fn(node, float(area)) for area in chip_areas]
    columns = _DieColumns(
        [cost.raw for cost in costs],
        [cost.defect for cost in costs],
        [cost.total for cost in costs],
        [cost.die_yield for cost in costs],
    )
    if _np is None:
        return columns
    return _DieColumns(*(
        _np.asarray(column, dtype=float)
        for column in (columns.raw, columns.defect, columns.total,
                       columns.die_yield)
    ))


class _PackColumns:
    """Per-area packaging columns of one (technology, count) pairing.

    One set of packaging coefficients (plus footprint and package NRE)
    per area: ``fixed`` is raw package plus package defects, and the
    KGD-dependent waste re-evaluates per node from the shared retry
    slopes.
    """

    def __init__(self, technology: IntegrationTech, count: int, chip_areas):
        fixed, slopes, footprint, nre = [], [], [], []
        for area in _tolist(chip_areas):
            chips = (area,) * count
            affine = linearize_packaging(technology, chips)
            fixed.append(affine.fixed_total)
            slopes.append(affine.wasted_slope)
            footprint.append(technology.package_area(chips))
            nre.append(technology.package_nre(chips))
        self.fixed = _column(fixed)
        self.footprint = _column(footprint)
        self.nre = _column(nre)
        self._slopes = _column(slopes)

    def wasted(self, kgd_values):
        """KGD waste per area for this pass's committed-KGD values —
        the ``PackagingAffine.wasted_kgd`` arithmetic, elementwise."""
        if _np is not None:
            return kgd_values * self._slopes
        return [kgd * slope for kgd, slope in zip(kgd_values, self._slopes)]


# ----------------------------------------------------------------------
# elementwise primitives (numpy arrays or plain lists, same arithmetic)
# ----------------------------------------------------------------------


def _chip_areas(module_areas: list, count: int, fraction: float):
    """Equal-share chiplet areas with fractional D2D overhead —
    ``share = area / n``; ``chip = share + share * f / (1 - f)``."""
    if _np is not None:
        table = _np.asarray(module_areas, dtype=float)
        share = table / count
        return share, share + (share * fraction) / (1.0 - fraction)
    share = [area / count for area in module_areas]
    return share, [
        part + (part * fraction) / (1.0 - fraction) for part in share
    ]


def _soc_chip_areas(module_areas: list):
    """SoC die areas: the module area plus a zero D2D term
    (``NO_OVERHEAD`` yields ``area + 0.0 == area`` exactly)."""
    if _np is not None:
        return _np.asarray(module_areas, dtype=float)
    return list(module_areas)


def _accumulate(count: int, *columns):
    """``count`` repeated additions of each column from zero — the
    per-unique-chip accumulation loops of ``compute_re_cost`` /
    ``compute_system_nre`` (count instances of x accumulate as n
    additions, and ``x * 1 == x`` exactly)."""
    if _np is not None:
        totals = [_np.zeros(len(column)) for column in columns]
        for _ in range(count):
            totals = [
                total + column for total, column in zip(totals, columns)
            ]
        return totals
    totals = [[0.0] * len(column) for column in columns]
    for _ in range(count):
        totals = [
            [value + item for value, item in zip(total, column)]
            for total, column in zip(totals, columns)
        ]
    return totals


def _column(values: list):
    """A per-area column for elementwise arithmetic (numpy array when
    available, the plain list otherwise)."""
    if _np is not None:
        return _np.asarray(values, dtype=float)
    return values


def _add(left, right):
    if _np is not None:
        return left + right
    return [x + y for x, y in zip(left, right)]


def _div(left, right):
    if _np is not None:
        return left / right
    return [x / y for x, y in zip(left, right)]


def _scale(column, factor: float):
    if _np is not None:
        return column * factor
    return [value * factor for value in column]


def _shift(column, offset: float):
    if _np is not None:
        return column + offset
    return [value + offset for value in column]


def _axpb(column, scale: float, offset: float):
    """``scale * x + offset`` elementwise, scalar association."""
    if _np is not None:
        return (scale * column) + offset
    return [(scale * value) + offset for value in column]


def _attempts(chips_total, wasted):
    """Package-test attempt factor of ``compute_tested_re_cost``:
    ``1 + wasted / kgd_cost`` guarded for a zero KGD value."""
    if _np is not None:
        attempts = _np.ones(len(chips_total))
        positive = chips_total > 0
        attempts[positive] = (
            1.0 + _np.asarray(wasted)[positive] / chips_total[positive]
        )
        return attempts
    return [
        1.0 + waste / total if total > 0 else 1.0
        for waste, total in zip(wasted, chips_total)
    ]


def _tolist(column) -> list:
    if _np is not None and isinstance(column, _np.ndarray):
        return column.tolist()
    return list(column)
