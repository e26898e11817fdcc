"""Stable, value-based design keys for portfolio amortization.

``Portfolio`` historically keyed shared designs on ``id(...)``: two
systems shared a chip design only when they referenced the *same*
:class:`~repro.core.chip.Chip` object.  That is the natural in-process
idiom, but it silently breaks for portfolios whose objects were rebuilt
— a config/scenario JSON document that repeats value-equal pool
entries, or any external generator that constructs one object per
system — inflating amortized NRE because every design looks fresh.

These functions derive a hashable *value* key from each design object:
two designs with equal value keys are one design, whether or not they
are the same object.  Keys are memoized on the object (written through
``__dict__``, which frozen dataclasses allow — the same idiom as
``ProcessNode.__hash__``), so hot amortization paths never rebuild
them.

Key contents (all value-hashable):

* module — name, area, reference node, scalable fraction;
* chip — name, node, the ordered module-instance keys, D2D policy;
* package design — name, socket areas, integration technology
  (serialized via its declarative registry spec when possible).

Unknown custom D2D policies and non-serializable integration
technologies fall back to identity keys, which degrades gracefully to
the historical object-sharing semantics for those objects.
"""

from __future__ import annotations

from typing import Hashable

from repro.canon import stable_json
from repro.core.chip import Chip
from repro.core.module import Module
from repro.core.package_design import PackageDesign
from repro.d2d.overhead import BandwidthOverhead, D2DOverhead, FractionOverhead
from repro.errors import ChipletActuaryError
from repro.packaging.base import IntegrationTech

#: Key of a module design unit: (module key, implementation node name).
ModuleKey = tuple


__all__ = [
    "ModuleKey",
    "chip_design_key",
    "d2d_policy_key",
    "integration_key",
    "module_design_key",
    "package_design_key",
]


def _memoized(obj: object, attr: str, build) -> Hashable:
    cached = obj.__dict__.get(attr)
    if cached is None:
        cached = build()
        object.__setattr__(obj, attr, cached)
    return cached


def d2d_policy_key(policy: D2DOverhead) -> Hashable:
    """Value key of a chip's D2D area-overhead policy."""
    if isinstance(policy, FractionOverhead):
        return ("fraction", policy.fraction)
    if isinstance(policy, BandwidthOverhead):
        return ("bandwidth", policy.bandwidth_gbps, policy.interface)
    return ("policy-id", id(policy))


def module_design_key(module: Module) -> Hashable:
    """Value key of one module design (its reference-node definition)."""
    return _memoized(
        module,
        "_design_key",
        lambda: (
            "module",
            module.name,
            module.area,
            module.node,
            module.scalable_fraction,
        ),
    )


def chip_design_key(chip: Chip) -> Hashable:
    """Value key of one chip design (mask set)."""
    return _memoized(
        chip,
        "_design_key",
        lambda: (
            "chip",
            chip.name,
            chip.node,
            tuple(module_design_key(module) for module in chip.modules),
            d2d_policy_key(chip.d2d),
        ),
    )


def integration_key(integration: IntegrationTech) -> Hashable:
    """Value key of an integration technology.

    Uses the declarative registry spec (config-schema-v2 wire format)
    when the technology is serializable, so two independently
    constructed default instances compare equal; otherwise identity.
    """
    try:
        from repro.registry.technologies import technology_to_spec

        spec = technology_to_spec(integration)
    except ChipletActuaryError:
        return ("tech-id", id(integration))
    return ("tech", stable_json(spec))


def package_design_key(package: PackageDesign) -> Hashable:
    """Value key of one package design."""
    return _memoized(
        package,
        "_design_key",
        lambda: (
            "package",
            package.name,
            package.socket_areas,
            integration_key(package.integration),
        ),
    )
