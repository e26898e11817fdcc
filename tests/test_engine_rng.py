"""MT19937 state transplant: bit parity with the ``random.Random`` oracle.

The contract is absolute: every element of a vectorized batch must
equal (``==``, not approx) the float the per-call stdlib stream would
have produced, and the ``random.Random`` instance must end in the
identical state (MT19937 words, generator index *and* the cached
Box-Muller spare), so batched and per-call draws interleave freely.
"""

import random

import pytest

from repro.engine.rng import (
    VECTOR_CUTOFF,
    gauss_fill,
    sample_prior,
    sample_prior_array,
)
from repro.yieldmodel.sampling import DefectDensityPrior


def _oracle_gauss(seed, count, mu=0.0, sigma=1.0):
    oracle = random.Random(seed)
    return [oracle.gauss(mu, sigma) for _ in range(count)], oracle


class TestGaussParity:
    @pytest.mark.parametrize("seed", [0, 1, 7, 123456789])
    def test_hundred_thousand_draws_bit_identical(self, seed):
        """>= 1e5 draws, element-wise ``==`` against the oracle."""
        expected, oracle = _oracle_gauss(seed, 100_000)
        transplanted = random.Random(seed)
        assert gauss_fill(transplanted, 100_000) == expected
        assert transplanted.getstate() == oracle.getstate()

    @pytest.mark.parametrize("count", [
        VECTOR_CUTOFF, VECTOR_CUTOFF + 1, 9_999, 10_000, 10_001,
    ])
    def test_odd_and_even_counts(self, count):
        """Odd requests leave the sine half as the cached spare; even
        requests leave none — both states must match the oracle's."""
        expected, oracle = _oracle_gauss(42, count)
        transplanted = random.Random(42)
        assert gauss_fill(transplanted, count) == expected
        assert transplanted.getstate() == oracle.getstate()

    def test_resumes_from_a_cached_spare(self):
        """A pre-existing ``gauss_next`` is emitted first, untouched."""
        oracle, transplanted = random.Random(9), random.Random(9)
        assert oracle.gauss(0.0, 1.0) == transplanted.gauss(0.0, 1.0)
        expected = [oracle.gauss(0.0, 1.0) for _ in range(1001)]
        assert gauss_fill(transplanted, 1001) == expected
        assert transplanted.getstate() == oracle.getstate()

    def test_interleaves_with_per_call_draws(self):
        """Batch, per-call, batch again: one uninterrupted stream."""
        oracle, transplanted = random.Random(3), random.Random(3)
        reference = [oracle.gauss(0.0, 1.0) for _ in range(2 * 5000 + 3)]
        stream = gauss_fill(transplanted, 5000)
        stream += [transplanted.gauss(0.0, 1.0) for _ in range(3)]
        stream += gauss_fill(transplanted, 5000)
        assert stream == reference
        assert transplanted.getstate() == oracle.getstate()
        assert transplanted.random() == oracle.random()

    def test_mu_sigma_applied_like_the_oracle(self):
        expected, oracle = _oracle_gauss(11, 4001, mu=2.5, sigma=0.75)
        transplanted = random.Random(11)
        assert gauss_fill(transplanted, 4001, mu=2.5, sigma=0.75) == expected
        assert transplanted.getstate() == oracle.getstate()

    def test_small_batches_use_the_stdlib_loop(self):
        """Below the cutoff the per-call path runs — same stream."""
        expected, oracle = _oracle_gauss(5, VECTOR_CUTOFF - 1)
        transplanted = random.Random(5)
        assert gauss_fill(transplanted, VECTOR_CUTOFF - 1) == expected
        assert transplanted.getstate() == oracle.getstate()

    def test_zero_and_negative_counts(self):
        untouched = random.Random(1)
        state = untouched.getstate()
        assert gauss_fill(untouched, 0) == []
        assert gauss_fill(untouched, -3) == []
        assert untouched.getstate() == state

    def test_returns_plain_floats(self):
        values = gauss_fill(random.Random(2), VECTOR_CUTOFF + 7)
        assert all(type(value) is float for value in values)

    def test_subclasses_fall_back_to_per_call(self):
        """A subclass may override the stream — never transplant it."""

        class Doubler(random.Random):
            def gauss(self, mu=0.0, sigma=1.0):
                return 2.0 * super().gauss(mu, sigma)

        oracle = Doubler(4)
        expected = [oracle.gauss(0.0, 1.0) for _ in range(600)]
        subclassed = Doubler(4)
        assert gauss_fill(subclassed, 600) == expected


class TestPriorParity:
    @pytest.mark.parametrize("seed", [0, 8, 77])
    @pytest.mark.parametrize("count", [100_000, 100_001])
    def test_bit_identical_across_seeds_and_parities(self, seed, count):
        prior = DefectDensityPrior(mode=1.0, sigma=0.15)
        oracle = random.Random(seed)
        expected = [prior.sample(oracle) for _ in range(count)]
        transplanted = random.Random(seed)
        assert sample_prior(prior, transplanted, count) == expected
        assert transplanted.getstate() == oracle.getstate()

    @pytest.mark.parametrize("lower,upper", [
        (None, None), (0.9, None), (None, 1.1), (0.95, 1.05),
    ])
    def test_truncation_bounds(self, lower, upper):
        prior = DefectDensityPrior(
            mode=1.2, sigma=0.4, lower=lower, upper=upper
        )
        oracle = random.Random(13)
        expected = [prior.sample(oracle) for _ in range(20_001)]
        transplanted = random.Random(13)
        assert sample_prior(prior, transplanted, 20_001) == expected

    def test_array_variant_matches_list_variant(self):
        numpy = pytest.importorskip("numpy")
        prior = DefectDensityPrior(mode=1.0, sigma=0.2)
        flat = sample_prior(prior, random.Random(6), 10_000)
        array = sample_prior_array(prior, random.Random(6), 10_000)
        assert isinstance(array, numpy.ndarray)
        assert array.tolist() == flat

    def test_returns_plain_floats(self):
        prior = DefectDensityPrior(mode=1.0, sigma=0.15)
        values = sample_prior(prior, random.Random(2), VECTOR_CUTOFF + 5)
        assert all(type(value) is float for value in values)

    def test_zero_count(self):
        prior = DefectDensityPrior(mode=1.0, sigma=0.15)
        assert sample_prior(prior, random.Random(0), 0) == []
        assert sample_prior_array(prior, random.Random(0), 0) == []


class TestScalarFallback:
    """Without numpy every entry point is the per-call stdlib loop."""

    def test_gauss_without_numpy(self, no_numpy):
        expected, oracle = _oracle_gauss(21, 5000)
        fallback = random.Random(21)
        assert gauss_fill(fallback, 5000) == expected
        assert fallback.getstate() == oracle.getstate()

    def test_prior_without_numpy(self, no_numpy):
        prior = DefectDensityPrior(mode=1.0, sigma=0.15)
        oracle = random.Random(22)
        expected = [prior.sample(oracle) for _ in range(5000)]
        fallback = random.Random(22)
        assert sample_prior(prior, fallback, 5000) == expected
        assert sample_prior_array(
            prior, random.Random(22), 5000
        ) == expected
