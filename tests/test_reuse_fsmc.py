"""FSMC scheme: collocation combinatorics and reuse economics."""

import math

import pytest

from repro.canon import fold_sum
from repro.errors import InvalidParameterError
from repro.packaging.mcm import mcm
from repro.reuse.fsmc import (
    FSMCConfig,
    build_fsmc,
    collocation_count,
    enumerate_collocations,
)


class TestCombinatorics:
    @pytest.mark.parametrize(
        "n,k,expected",
        [
            (2, 2, 2 + 3),
            (4, 2, 4 + 10),
            (4, 3, 4 + 10 + 20),
            (4, 4, 4 + 10 + 20 + 35),
            (6, 4, 6 + 21 + 56 + 126),
            (1, 1, 1),
            (1, 5, 5),
        ],
    )
    def test_closed_form(self, n, k, expected):
        assert collocation_count(n, k) == expected

    @pytest.mark.parametrize("n,k", [(2, 2), (3, 3), (4, 4), (6, 4), (5, 2)])
    def test_enumeration_matches_closed_form(self, n, k):
        assert len(enumerate_collocations(n, k)) == collocation_count(n, k)

    def test_enumeration_is_multisets(self):
        collocations = enumerate_collocations(3, 2)
        assert (0,) in collocations
        assert (0, 0) in collocations
        assert (0, 1) in collocations
        assert (1, 0) not in collocations  # canonical (sorted) form only

    def test_enumeration_unique(self):
        collocations = enumerate_collocations(6, 4)
        assert len(set(collocations)) == len(collocations)

    def test_paper_formula_term(self):
        # One term of the paper's sum: C(n+i-1, i).
        assert math.comb(6 + 4 - 1, 4) == 126

    def test_invalid_arguments(self):
        with pytest.raises(InvalidParameterError):
            collocation_count(0, 2)
        with pytest.raises(InvalidParameterError):
            enumerate_collocations(2, 0)


@pytest.fixture(scope="module")
def study():
    return build_fsmc(FSMCConfig(n_chiplets=3, k_sockets=2), mcm())


class TestStructure:
    def test_system_count(self, study):
        assert study.system_count == collocation_count(3, 2)
        assert len(study.soc) == study.system_count

    def test_multichip_shares_one_package(self, study):
        designs = {id(system.package) for system in study.multichip.systems}
        assert len(designs) == 1

    def test_chip_designs_limited_to_n(self, study):
        chips = {
            id(chip)
            for system in study.multichip.systems
            for chip, _n in system.unique_chips()
        }
        assert len(chips) == 3

    def test_soc_chip_designs_one_per_system(self, study):
        chips = {
            id(system.chips[0]) for system in study.soc.systems
        }
        assert len(chips) == study.system_count


class TestEconomics:
    def test_multichip_nre_flat_in_system_count(self):
        """Adding collocations does not add multi-chip designs, so the
        portfolio NRE stays flat while SoC NRE grows."""
        small = build_fsmc(FSMCConfig(n_chiplets=4, k_sockets=2), mcm())
        large = build_fsmc(FSMCConfig(n_chiplets=4, k_sockets=3), mcm())
        assert large.multichip.total_nre().chips == pytest.approx(
            small.multichip.total_nre().chips
        )
        assert large.soc.total_nre().chips > small.soc.total_nre().chips

    def test_amortized_nre_shrinks_with_reuse(self):
        """The paper: 'the more chiplets are reused, the more benefits
        from NRE cost amortization'."""
        low = build_fsmc(FSMCConfig(n_chiplets=2, k_sockets=2), mcm())
        high = build_fsmc(FSMCConfig(n_chiplets=4, k_sockets=4), mcm())

        def avg_nre(portfolio):
            return sum(
                portfolio.amortized_nre(system).total * system.quantity
                for system in portfolio.systems
            ) / portfolio.total_quantity

        assert avg_nre(high.multichip) < avg_nre(low.multichip)

    def test_multichip_beats_soc_at_high_reuse(self):
        study = build_fsmc(FSMCConfig(n_chiplets=4, k_sockets=4), mcm())
        assert (
            study.multichip.average_cost() < study.soc.average_cost()
        )


def _compensated_sum(values):
    """Builtin ``sum()`` over floats as Python 3.12+ computes it
    (Neumaier), written out so the test can tell it from the fold on
    any interpreter."""
    total = 0.0
    compensation = 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


class TestAverageSoCNormalizer:
    """The quantity-weighted average SoC RE that normalizes FSMC studies
    is a left fold in both places it is computed.  The 100 mm^2, (2, 2)
    situation is chosen so that the fold and a compensated sum of the
    weighted REs differ in the last bit: builtin ``sum()`` on Python
    3.12+ would fail these tests."""

    AREA = 100.0

    @staticmethod
    def _expected(systems, re_totals, total_quantity):
        terms = [
            re_total * system.quantity
            for system, re_total in zip(systems, re_totals)
        ]
        folded = fold_sum(terms) / total_quantity
        assert folded != _compensated_sum(terms) / total_quantity
        return folded

    def test_reuse_study_reference_is_the_fold(self):
        from repro.scenario import run_scenario

        data = run_scenario({
            "scenario": "fsmc-fold",
            "studies": [{
                "kind": "reuse", "name": "fsmc", "scheme": "fsmc",
                "technology": "mcm",
                "params": {"n_chiplets": 2, "k_sockets": 2,
                           "module_area": self.AREA, "node": "7nm"},
            }],
        }).result("fsmc").data
        soc = data["study"].soc
        expected = self._expected(
            soc.systems,
            [cost.re.total for cost in data["costs"]["SoC"].costs],
            soc.total_quantity,
        )
        assert data["reference"] == expected

    def test_fig10_reference_is_the_fold(self):
        from repro.core.re_cost import compute_re_cost
        from repro.experiments.common import PAPER_D2D_FRACTION
        from repro.experiments.fig10 import run_fig10
        from repro.process.catalog import get_node

        result = run_fig10(((2, 2),), module_area=self.AREA)
        soc = build_fsmc(
            FSMCConfig(n_chiplets=2, k_sockets=2, module_area=self.AREA,
                       node=get_node("7nm"), quantity=500_000.0,
                       d2d_fraction=PAPER_D2D_FRACTION),
            mcm(),
        ).soc
        expected = self._expected(
            soc.systems,
            [compute_re_cost(system).total for system in soc.systems],
            soc.total_quantity,
        )
        assert result.reference == expected
