"""Vectorized (and scalar-fallback) design-space evaluation.

Evaluates every candidate of a :class:`~repro.search.space.DesignSpace`
in dense blocks, never building a ``System`` object on the hot path,
with results bit-identical to the naive per-candidate pipeline
(``repro.search.oracle``).  The replicated arithmetic and its exactness
arguments:

* **Chip area, die cost, per-chip sums** — the equal-partition kernel
  :mod:`repro.engine.partition_columns` (shared with
  ``CostEngine.partition_grid``): the exact area expressions of
  ``partition_monolith`` / ``FractionOverhead``, the closed-form die
  cost of the paper's default geometry/yield model (correctly rounded
  numpy ops, libm ``pow`` per element) or a registry die-cost override
  priced per unique die, and ``n`` repeated additions from zero.
* **Packaging** — one
  :func:`~repro.engine.packaging_affine.linearize_packaging` call per
  (technology, count) and block returns the technology's packaging
  columns over the block's chip areas (the technology's own scalar
  arithmetic run on column-valued chips, so each row has the bits of
  the one-system call), shared across the node axis; the KGD waste
  column is the same ``kgd * retries`` multiply the technology's own
  itemized cost makes.
* **Accumulation order** — every composite total keeps the dataclass
  properties' association, e.g.
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

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro.config import ConfigRegistries
from repro.engine.packaging_affine import linearize_packaging
from repro.engine.partition_columns import (
    DieCostFn,
    accumulate,
    die_columns,
    soc_areas,
    split_areas,
)
from repro.errors import ConfigError, InvalidParameterError, RegistryError
from repro.packaging.base import PackagingColumns
from repro.packaging.soc import soc_package
from repro.search.space import CandidateGroup, DesignSpace

try:  # evaluation vectorizes with numpy; falls back to pure Python
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: Candidates per evaluation block along the module-area axis; bounds
#: peak memory, and results are independent of it.
BATCH_SIZE = 4096


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
    :data:`BATCH_SIZE` candidates.
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
        groups chunked by :data:`BATCH_SIZE` along the module-area axis."""
        space = self.space
        areas = [float(area) for area in space.module_areas]
        for start in range(0, len(areas), BATCH_SIZE):
            chunk = areas[start:start + BATCH_SIZE]
            if space.include_soc:
                packs = {
                    "": linearize_packaging(
                        self._soc_tech, soc_areas(chunk), 1
                    )
                }
                for node_name in space.nodes:
                    yield from self._node_blocks(
                        1, 0.0, node_name, chunk, start, packs, soc=True
                    )
            for count in space.chiplet_counts:
                for fraction in space.d2d_fractions:
                    share, chip_areas = split_areas(chunk, count, fraction)
                    packs = {
                        name: linearize_packaging(
                            technology, chip_areas, count
                        )
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
        packs: Mapping[str, PackagingColumns],
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
            chip_areas = soc_areas(module_areas)
            share = chip_areas
        chiplet = not soc and fraction > 0.0
        die = die_columns(node, chip_areas, self.die_cost_fn)
        die_default = die
        if self.die_cost_fn is not None and self.test_model is not None:
            die_default = die_columns(node, chip_areas)
        raw_chips, chip_defects, kgd, silicon = accumulate(
            count, die.raw, die.defect, die.total, chip_areas
        )
        module_unit = _scale(share, node.km_per_mm2)
        chip_unit = _axpb(chip_areas, node.kc_per_mm2, node.fixed_chip_nre)
        modules_nre, chips_nre = accumulate(count, module_unit, chip_unit)
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
            fixed = _add(pack.raw_package, pack.package_defects)
            re_total = _add(
                chips_total, _add(fixed, _mul(kgd, pack.wasted_slope))
            )
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
                wasted_default = _mul(kgd_default, pack.wasted_slope)
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
        (sort_total,) = accumulate(count, per_good)
        raw_default, defect_default, kgd_default = accumulate(
            count, die_default.raw, die_default.defect, die_default.total
        )
        chips_total_default = _add(raw_default, defect_default)
        return sort_total, chips_total_default, kgd_default


# ----------------------------------------------------------------------
# elementwise primitives (numpy arrays or plain lists, same arithmetic)
# ----------------------------------------------------------------------


def _add(left, right):
    if _np is not None:
        return left + right
    return [x + y for x, y in zip(left, right)]


def _mul(left, right):
    if _np is not None:
        return left * right
    return [x * y for x, y in zip(left, right)]


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
