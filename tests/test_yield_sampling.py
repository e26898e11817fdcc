"""Monte-Carlo yield-parameter sampling."""

import random

import pytest

from repro.errors import InvalidParameterError
from repro.yieldmodel.sampling import DefectDensityPrior, sample_yields


def test_sampling_is_deterministic_given_seed():
    prior = DefectDensityPrior(mode=0.09)
    a = sample_yields(prior, 10.0, 500.0, draws=50, seed=7)
    b = sample_yields(prior, 10.0, 500.0, draws=50, seed=7)
    assert a == b


def test_different_seeds_differ():
    prior = DefectDensityPrior(mode=0.09)
    a = sample_yields(prior, 10.0, 500.0, draws=50, seed=1)
    b = sample_yields(prior, 10.0, 500.0, draws=50, seed=2)
    assert a != b


def test_yields_in_unit_interval():
    prior = DefectDensityPrior(mode=0.11, sigma=0.4)
    for value in sample_yields(prior, 10.0, 800.0, draws=200, seed=3):
        assert 0.0 < value <= 1.0


def test_zero_sigma_is_point_mass():
    prior = DefectDensityPrior(mode=0.09, sigma=0.0)
    values = sample_yields(prior, 10.0, 500.0, draws=10, seed=0)
    assert len(set(values)) == 1


def test_bounds_are_respected():
    prior = DefectDensityPrior(mode=0.09, sigma=1.0, lower=0.08, upper=0.10)
    rng = random.Random(0)
    for _ in range(200):
        assert 0.08 <= prior.sample(rng) <= 0.10


def test_invalid_bounds_rejected():
    with pytest.raises(InvalidParameterError):
        DefectDensityPrior(mode=0.09, lower=0.2, upper=0.1)


def test_negative_mode_rejected():
    with pytest.raises(InvalidParameterError):
        DefectDensityPrior(mode=-0.1)


@pytest.mark.parametrize("field", ["mode", "sigma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_parameters_rejected(field, value):
    """NaN passes ``x < 0``; the prior must still refuse it."""
    arguments = {"mode": 0.09, field: value}
    with pytest.raises(InvalidParameterError, match=f"{field} must be a finite"):
        DefectDensityPrior(**arguments)


def test_negative_sigma_rejected():
    with pytest.raises(InvalidParameterError, match="sigma must be >= 0"):
        DefectDensityPrior(mode=0.09, sigma=-0.1)


def test_zero_draws_rejected():
    with pytest.raises(InvalidParameterError):
        sample_yields(DefectDensityPrior(0.09), 10.0, 500.0, draws=0)
