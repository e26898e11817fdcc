"""Integration technologies: areas, cost components, NRE, sizing."""

import pytest

from repro.errors import EmptySystemError, InvalidParameterError
from repro.packaging.assembly import AssemblyFlow
from repro.packaging.info import info
from repro.packaging.interposer import interposer_25d
from repro.packaging.mcm import mcm
from repro.packaging.soc import soc_package
from repro.packaging.stacked3d import stacked_3d
from repro.packaging.substrate import OrganicSubstrate


class TestSubstrate:
    def test_cost_scales_with_area_and_layers(self):
        substrate = OrganicSubstrate(layers=10, cost_per_mm2_per_layer=0.001)
        assert substrate.cost(1000.0) == pytest.approx(10.0)
        assert substrate.with_layers(5).cost(1000.0) == pytest.approx(5.0)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            OrganicSubstrate(layers=0)
        with pytest.raises(InvalidParameterError):
            OrganicSubstrate(layers=4).cost(-1.0)


class TestSoCPackage:
    def test_holds_exactly_one_die(self):
        package = soc_package()
        assert package.max_chips == 1
        assert package.supports_chip_count(1)
        assert not package.supports_chip_count(2)
        with pytest.raises(InvalidParameterError):
            package.package_area([100.0, 100.0])

    def test_package_area_factor(self):
        package = soc_package()
        assert package.package_area([100.0]) == pytest.approx(
            100.0 * package.substrate_area_factor
        )

    def test_packaging_cost_components_nonnegative(self):
        cost = soc_package().packaging_cost([400.0], kgd_cost=300.0)
        assert cost.raw_package > 0
        assert cost.package_defects >= 0
        assert cost.wasted_kgd >= 0

    def test_empty_chip_list_rejected(self):
        with pytest.raises(EmptySystemError):
            soc_package().package_area([])

    def test_packaging_rejects_several_dies(self):
        with pytest.raises(InvalidParameterError, match="exactly one die, got 2"):
            soc_package().packaging_cost((100.0, 200.0), 50.0)

    def test_negative_kgd_rejected(self):
        with pytest.raises(InvalidParameterError, match="KGD cost"):
            soc_package().packaging_cost([100.0], kgd_cost=-1.0)

    def test_nre_affine_in_area(self):
        package = soc_package()
        small = package.package_nre([100.0])
        large = package.package_nre([200.0])
        assert large > small
        assert small > package.nre_fixed


class TestMCM:
    def test_area_sums_chips(self):
        tech = mcm()
        assert tech.package_area([100.0, 200.0]) == pytest.approx(
            300.0 * tech.substrate_area_factor
        )

    def test_more_chips_more_waste(self):
        tech = mcm()
        two = tech.packaging_cost([100.0, 100.0], kgd_cost=100.0)
        four = tech.packaging_cost([50.0] * 4, kgd_cost=100.0)
        assert four.wasted_kgd > two.wasted_kgd

    def test_sized_for_larger_package(self):
        tech = mcm()
        plain = tech.packaging_cost([100.0], kgd_cost=50.0)
        oversized = tech.packaging_cost(
            [100.0], kgd_cost=50.0, sized_for=[100.0, 100.0, 100.0, 100.0]
        )
        assert oversized.raw_package > plain.raw_package
        # Bonding yields follow the actual single chip in both cases.
        assert oversized.wasted_kgd == pytest.approx(
            plain.wasted_kgd, rel=1e-9
        )

    def test_mcm_has_more_layers_than_soc(self):
        # The paper's "growth factor on substrate RE cost".
        assert mcm().substrate.layers > soc_package().substrate.layers


class TestInFO:
    def test_rdl_area_factor(self):
        tech = info()
        assert tech.rdl_area([100.0, 100.0]) == pytest.approx(
            200.0 * tech.rdl_area_factor
        )

    def test_chip_first_wastes_more_kgd(self):
        chip_areas = [300.0, 300.0]
        kgd = 500.0
        last = info(flow=AssemblyFlow.CHIP_LAST).packaging_cost(chip_areas, kgd)
        first = info(flow=AssemblyFlow.CHIP_FIRST).packaging_cost(chip_areas, kgd)
        assert first.wasted_kgd > last.wasted_kgd

    def test_with_flow_returns_copy(self):
        tech = info()
        first = tech.with_flow(AssemblyFlow.CHIP_FIRST)
        assert first.flow is AssemblyFlow.CHIP_FIRST
        assert tech.flow is AssemblyFlow.CHIP_LAST

    def test_bigger_rdl_for_more_silicon(self):
        tech = info()
        small = tech.packaging_cost([100.0], kgd_cost=10.0)
        large = tech.packaging_cost([500.0, 500.0], kgd_cost=10.0)
        assert large.raw_package > small.raw_package


class TestInterposer:
    def test_interposer_area_factor(self):
        tech = interposer_25d()
        assert tech.interposer_area([400.0, 400.0]) == pytest.approx(
            800.0 * tech.interposer_area_factor
        )

    def test_interposer_costs_more_than_mcm(self):
        # The paper's Fig. 1 cost ordering: 2.5D > InFO > MCM.
        chip_areas = [400.0, 400.0]
        kgd = 400.0
        mcm_cost = mcm().packaging_cost(chip_areas, kgd).total
        info_cost = info().packaging_cost(chip_areas, kgd).total
        interposer_cost = interposer_25d().packaging_cost(chip_areas, kgd).total
        assert mcm_cost < info_cost < interposer_cost

    def test_large_interposer_suffers_poor_yield(self):
        """Package-defect share grows with interposer area (the paper's
        'with a monolithic interposer, advanced packaging technologies
        still suffer from poor yield'.)"""
        tech = interposer_25d()
        small = tech.packaging_cost([200.0], kgd_cost=100.0)
        large = tech.packaging_cost([500.0, 500.0], kgd_cost=100.0)
        assert (
            large.package_defects / large.raw_package
            > small.package_defects / small.raw_package
        )

    def test_packaging_nre_ordering(self):
        # Advanced packages cost more to design (Kp and Cp both larger).
        chip_areas = [400.0, 400.0]
        assert (
            soc_package().package_nre([800.0])
            < mcm().package_nre(chip_areas)
            < info().package_nre(chip_areas)
            < interposer_25d().package_nre(chip_areas)
        )

    def test_factory_overrides(self):
        tech = interposer_25d(chip_attach_yield=0.95)
        assert tech.chip_attach_yield == 0.95


# ----------------------------------------------------------------------
# Bit-for-bit pin of every built-in technology's packaging arithmetic
# ----------------------------------------------------------------------

PIN_CHIPS = (150.0, 120.0, 97.5, 80.0, 64.25, 50.0)
PIN_SOCKETS = (180.0, 150.0, 120.0, 100.0, 80.0, 60.0)
PIN_KGDS = (0.0, 17.5, 1234.0)
PIN_TECHS = {
    "soc": soc_package,
    "mcm": mcm,
    "info-last": info,
    "info-first": lambda: info(flow=AssemblyFlow.CHIP_FIRST),
    "2.5d-last": interposer_25d,
    "2.5d-first": lambda: interposer_25d(flow=AssemblyFlow.CHIP_FIRST),
    "2.5d-active": lambda: interposer_25d(active=True),
    "3d": stacked_3d,
}

#: (technology, chips, sized_for given?) -> float.hex of raw_package,
#: package_defects and wasted_kgd at each of ``PIN_KGDS``.  Every batch
#: path promises bit parity with these itemized costs, so a refactor of
#: the packaging arithmetic must reproduce every bit.
PACKAGING_PINS = {
    ('soc', 1, False): (
        '0x1.04ccccccccccdp+3', '0x1.50582f96c4bebp-4',
        ('0x0.0p+0', '0x1.691b24f51b798p-3', '0x1.8ddc892d2436cp+3'),
    ),
    ('soc', 1, True): (
        '0x1.18f5c28f5c290p+3', '0x1.6a5817a039695p-4',
        ('0x0.0p+0', '0x1.691b24f51b798p-3', '0x1.8ddc892d2436cp+3'),
    ),
    ('mcm', 1, False): (
        '0x1.0000000000000p+4', '0x1.f15104ecc1680p-3',
        ('0x0.0p+0', '0x1.0ff84eb179c4ep-2', '0x1.2ba71137a788fp+4'),
    ),
    ('mcm', 1, True): (
        '0x1.1333333333333p+4', '0x1.0b4ebf7274c18p-2',
        ('0x0.0p+0', '0x1.0ff84eb179c4ep-2', '0x1.2ba71137a788fp+4'),
    ),
    ('mcm', 2, False): (
        '0x1.4cccccccccccdp+4', '0x1.afe948f11cd67p-2',
        ('0x0.0p+0', '0x1.6b630ae865cd0p-2', '0x1.905fddd8bcf67p+4'),
    ),
    ('mcm', 2, True): (
        '0x1.7333333333334p+4', '0x1.e1bf47831651bp-2',
        ('0x0.0p+0', '0x1.6b630ae865cd0p-2', '0x1.905fddd8bcf67p+4'),
    ),
    ('mcm', 3, False): (
        '0x1.8b33333333334p+4', '0x1.41492692f7ab4p-1',
        ('0x0.0p+0', '0x1.c743612750700p-2', '0x1.f59a3cdef9150p+4'),
    ),
    ('mcm', 3, True): (
        '0x1.c000000000000p+4', '0x1.6c35e752a6c00p-1',
        ('0x0.0p+0', '0x1.c743612750700p-2', '0x1.f59a3cdef9150p+4'),
    ),
    ('mcm', 4, False): (
        '0x1.be66666666667p+4', '0x1.b4843231ccf8ep-1',
        ('0x0.0p+0', '0x1.11ccf45bcbce9p-1', '0x1.2dab6a7ce93ccp+5'),
    ),
    ('mcm', 4, True): (
        '0x1.0000000000000p+5', '0x1.f4a9f957660c0p-1',
        ('0x0.0p+0', '0x1.11ccf45bcbce9p-1', '0x1.2dab6a7ce93ccp+5'),
    ),
    ('mcm', 5, False): (
        '0x1.e7851eb851eb8p+4', '0x1.16c224d4e667cp+0',
        ('0x0.0p+0', '0x1.40339cd29bf12p-1', '0x1.60cb26d796c93p+5'),
    ),
    ('mcm', 5, True): (
        '0x1.199999999999ap+5', '0x1.42080594e8e6dp+0',
        ('0x0.0p+0', '0x1.40339cd29bf12p-1', '0x1.60cb26d796c93p+5'),
    ),
    ('mcm', 6, False): (
        '0x1.03c28f5c28f5cp+5', '0x1.54519d1ac9295p+0',
        ('0x0.0p+0', '0x1.6ed5f65fe37abp-1', '0x1.942ca7ae38590p+5'),
    ),
    ('mcm', 6, True): (
        '0x1.2cccccccccccdp+5', '0x1.8a16218b954acp+0',
        ('0x0.0p+0', '0x1.6ed5f65fe37abp-1', '0x1.942ca7ae38590p+5'),
    ),
    ('info-last', 1, False): (
        '0x1.82c5562123609p+4', '0x1.1c6927eb19152p+0',
        ('0x0.0p+0', '0x1.133590704cd61p-1', '0x1.2f38bb06b3be2p+5'),
    ),
    ('info-last', 1, True): (
        '0x1.a191ba8afcaf1p+4', '0x1.5bad1f3132d11p+0',
        ('0x0.0p+0', '0x1.133590704cd61p-1', '0x1.2f38bb06b3be2p+5'),
    ),
    ('info-last', 2, False): (
        '0x1.fed630fe5bfd8p+4', '0x1.4de81f254b6e2p+1',
        ('0x0.0p+0', '0x1.707e8261eb59fp-1', '0x1.96006a2af8caep+5'),
    ),
    ('info-last', 2, True): (
        '0x1.1f3d163eda37dp+5', '0x1.c46118ba2939cp+1',
        ('0x0.0p+0', '0x1.707e8261eb59fp-1', '0x1.96006a2af8caep+5'),
    ),
    ('info-last', 3, False): (
        '0x1.33d47ae147ae1p+5', '0x1.22ae54a6413edp+2',
        ('0x0.0p+0', '0x1.ceb8ad12bf2ebp-1', '0x1.fdd1df9a990acp+5'),
    ),
    ('info-last', 3, True): (
        '0x1.60d8d8d8d8d8ep+5', '0x1.990143808d86bp+2',
        ('0x0.0p+0', '0x1.ceb8ad12bf2ebp-1', '0x1.fdd1df9a990acp+5'),
    ),
    ('info-last', 4, False): (
        '0x1.603501ce9b683p+5', '0x1.ae43c2c9ad4d4p+2',
        ('0x0.0p+0', '0x1.16f3402353a0ep+0', '0x1.3357e54b7e6d3p+6'),
    ),
    ('info-last', 4, True): (
        '0x1.98f2b9d6480f3p+5', '0x1.35b32c314798fp+3',
        ('0x0.0p+0', '0x1.16f3402353a0ep+0', '0x1.3357e54b7e6d3p+6'),
    ),
    ('info-last', 5, False): (
        '0x1.835f238f8bd2ap+5', '0x1.1c46aa028e651p+3',
        ('0x0.0p+0', '0x1.470539073d33ap+0', '0x1.684e70a958eabp+6'),
    ),
    ('info-last', 5, True): (
        '0x1.c7316b4c21d62p+5', '0x1.a22db6eb47736p+3',
        ('0x0.0p+0', '0x1.470539073d33ap+0', '0x1.684e70a958eabp+6'),
    ),
    ('info-last', 6, False): (
        '0x1.9fb4ec87f21adp+5', '0x1.5ebef60b56f9cp+3',
        ('0x0.0p+0', '0x1.77937f6c29216p+0', '0x1.9dcdf081af254p+6'),
    ),
    ('info-last', 6, True): (
        '0x1.ea303a2303a24p+5', '0x1.028c14f5e9ec4p+4',
        ('0x0.0p+0', '0x1.77937f6c29216p+0', '0x1.9dcdf081af254p+6'),
    ),
    ('info-first', 1, False): (
        '0x1.82c5562123609p+4', '0x1.45b5ab9ca33eap+1',
        ('0x0.0p+0', '0x1.1ae3ffb4585cfp+1', '0x1.37af51f5c995fp+7'),
    ),
    ('info-first', 1, True): (
        '0x1.a191ba8afcaf1p+4', '0x1.8b5a95028264dp+1',
        ('0x0.0p+0', '0x1.473cbfc24db14p+1', '0x1.688b9e3fae494p+7'),
    ),
    ('info-first', 2, False): (
        '0x1.fed630fe5bfd8p+4', '0x1.51c52cd5cd648p+2',
        ('0x0.0p+0', '0x1.eab23a352cc08p+1', '0x1.0e522f26e4c49p+8'),
    ),
    ('info-first', 2, True): (
        '0x1.1f3d163eda37dp+5', '0x1.b56f8076e485ep+2',
        ('0x0.0p+0', '0x1.2483ed1505507p+2', '0x1.424a0a3e047bdp+8'),
    ),
    ('info-first', 3, False): (
        '0x1.33d47ae147ae1p+5', '0x1.09071e21101c1p+3',
        ('0x0.0p+0', '0x1.511c4e82dc08cp+2', '0x1.736c71ee59beap+8'),
    ),
    ('info-first', 3, True): (
        '0x1.60d8d8d8d8d8ep+5', '0x1.616e049739268p+3',
        ('0x0.0p+0', '0x1.95565197e2cd4p+2', '0x1.be983f6251338p+8'),
    ),
    ('info-first', 4, False): (
        '0x1.603501ce9b683p+5', '0x1.6ca7da198eecap+3',
        ('0x0.0p+0', '0x1.a2a014592d8b8p+2', '0x1.cd3c424e24027p+8'),
    ),
    ('info-first', 4, True): (
        '0x1.98f2b9d6480f3p+5', '0x1.f1267d7e105b7p+3',
        ('0x0.0p+0', '0x1.fb1f3866a958bp+2', '0x1.175eaf4cab769p+9'),
    ),
    ('info-first', 5, False): (
        '0x1.835f238f8bd2ap+5', '0x1.cb281066cd5cep+3',
        ('0x0.0p+0', '0x1.e9cf3d2bb78f1p+2', '0x1.0dd5234c6d1f1p+9'),
    ),
    ('info-first', 5, True): (
        '0x1.c7316b4c21d62p+5', '0x1.3f3631bf89b08p+4',
        ('0x0.0p+0', '0x1.29d47078003bap+3', '0x1.482508b76a505p+9'),
    ),
    ('info-first', 6, False): (
        '0x1.9fb4ec87f21adp+5', '0x1.1143f5fe42b83p+4',
        ('0x0.0p+0', '0x1.135ce43190ae8p+3', '0x1.2f640f88e559dp+9'),
    ),
    ('info-first', 6, True): (
        '0x1.ea303a2303a24p+5', '0x1.7dc81fe377a8cp+4',
        ('0x0.0p+0', '0x1.4e7e896d25315p+3', '0x1.708a808ea79b6p+9'),
    ),
    ('2.5d-last', 1, False): (
        '0x1.1a77d46cefa8ep+5', '0x1.019bee595315ap+1',
        ('0x0.0p+0', '0x1.133590704cd61p-1', '0x1.2f38bb06b3be2p+5'),
    ),
    ('2.5d-last', 1, True): (
        '0x1.343702d11babdp+5', '0x1.4886ad6c95ee6p+1',
        ('0x0.0p+0', '0x1.133590704cd61p-1', '0x1.2f38bb06b3be2p+5'),
    ),
    ('2.5d-last', 2, False): (
        '0x1.831a8020eec30p+5', '0x1.520302bb5d490p+2',
        ('0x0.0p+0', '0x1.707e8261eb59fp-1', '0x1.96006a2af8caep+5'),
    ),
    ('2.5d-last', 2, True): (
        '0x1.b9b35c6ae87e4p+5', '0x1.ddb633ae211c2p+2',
        ('0x0.0p+0', '0x1.707e8261eb59fp-1', '0x1.96006a2af8caep+5'),
    ),
    ('2.5d-last', 3, False): (
        '0x1.dc2e7abc18b13p+5', '0x1.33e69cca50fd0p+3',
        ('0x0.0p+0', '0x1.ceb8ad12bf2ebp-1', '0x1.fdd1df9a990acp+5'),
    ),
    ('2.5d-last', 3, True): (
        '0x1.1500000000000p+6', '0x1.c216498103c94p+3',
        ('0x0.0p+0', '0x1.ceb8ad12bf2ebp-1', '0x1.fdd1df9a990acp+5'),
    ),
    ('2.5d-last', 4, False): (
        '0x1.137e6a0657e6ap+6', '0x1.d117a5545a9eep+3',
        ('0x0.0p+0', '0x1.16f3402353a0ep+0', '0x1.3357e54b7e6d3p+6'),
    ),
    ('2.5d-last', 4, True): (
        '0x1.454da9b536a6ep+6', '0x1.5cb55a24995c1p+4',
        ('0x0.0p+0', '0x1.16f3402353a0ep+0', '0x1.3357e54b7e6d3p+6'),
    ),
    ('2.5d-last', 5, False): (
        '0x1.3235bbcdc006cp+6', '0x1.3929288ee4f10p+4',
        ('0x0.0p+0', '0x1.470539073d33ap+0', '0x1.684e70a958eabp+6'),
    ),
    ('2.5d-last', 5, True): (
        '0x1.6d02b1da46103p+6', '0x1.dc9d82e9ff77ap+4',
        ('0x0.0p+0', '0x1.470539073d33ap+0', '0x1.684e70a958eabp+6'),
    ),
    ('2.5d-last', 6, False): (
        '0x1.4accaeab23315p+6', '0x1.862f6f95f902ep+4',
        ('0x0.0p+0', '0x1.77937f6c29216p+0', '0x1.9dcdf081af254p+6'),
    ),
    ('2.5d-last', 6, True): (
        '0x1.8c48484848484p+6', '0x1.2a5fa04f14a80p+5',
        ('0x0.0p+0', '0x1.77937f6c29216p+0', '0x1.9dcdf081af254p+6'),
    ),
    ('2.5d-first', 1, False): (
        '0x1.1a77d46cefa8ep+5', '0x1.08ecaff64ebaap+2',
        ('0x0.0p+0', '0x1.3303277cf4491p+1', '0x1.524304a679093p+7'),
    ),
    ('2.5d-first', 1, True): (
        '0x1.343702d11babdp+5', '0x1.48f6c8084ef53p+2',
        ('0x0.0p+0', '0x1.65076a6b9a320p+1', '0x1.895e920d696eep+7'),
    ),
    ('2.5d-first', 2, False): (
        '0x1.831a8020eec30p+5', '0x1.28eae8510fb52p+3',
        ('0x0.0p+0', '0x1.0de8447627484p+2', '0x1.296147c5d6409p+8'),
    ),
    ('2.5d-first', 2, True): (
        '0x1.b9b35c6ae87e4p+5', '0x1.8dce41782beabp+3',
        ('0x0.0p+0', '0x1.443955a62d4d5p+2', '0x1.6539af480174cp+8'),
    ),
    ('2.5d-first', 3, False): (
        '0x1.dc2e7abc18b13p+5', '0x1.e890800d3e310p+3',
        ('0x0.0p+0', '0x1.760063577700cp+2', '0x1.9c11cc89f7afep+8'),
    ),
    ('2.5d-first', 3, True): (
        '0x1.1500000000000p+6', '0x1.52351ee8f4903p+4',
        ('0x0.0p+0', '0x1.c5ea012fe93e3p+2', '0x1.f41db56c1a207p+8'),
    ),
    ('2.5d-first', 4, False): (
        '0x1.137e6a0657e6ap+6', '0x1.5a23ba4b7e1c9p+4',
        ('0x0.0p+0', '0x1.d3507abd6fb61p+2', '0x1.0170adac7932bp+9'),
    ),
    ('2.5d-first', 4, True): (
        '0x1.454da9b536a6ep+6', '0x1.ec56fe85fb828p+4',
        ('0x0.0p+0', '0x1.1e3947aed6377p+3', '0x1.3b5b7402010cap+9'),
    ),
    ('2.5d-first', 5, False): (
        '0x1.3235bbcdc006cp+6', '0x1.bebb015e63ac1p+4',
        ('0x0.0p+0', '0x1.129fe28c056ddp+3', '0x1.2e93d0eba5113p+9'),
    ),
    ('2.5d-first', 5, True): (
        '0x1.6d02b1da46103p+6', '0x1.434354e458a1ep+5',
        ('0x0.0p+0', '0x1.5238ab269ecbdp+3', '0x1.74a5c03a8d217p+9'),
    ),
    ('2.5d-first', 6, False): (
        '0x1.4accaeab23315p+6', '0x1.0e2d09f4c5ab9p+5',
        ('0x0.0p+0', '0x1.35bd0f7fc5379p+3', '0x1.5543f61af26f1p+9'),
    ),
    ('2.5d-first', 6, True): (
        '0x1.8c48484848484p+6', '0x1.89efbf23b7655p+5',
        ('0x0.0p+0', '0x1.7d6adbd5bebaap+3', '0x1.a43d81c0fca82p+9'),
    ),
    ('2.5d-active', 1, False): (
        '0x1.2e677d46cefa9p+5', '0x1.1203e18f3a0c6p+1',
        ('0x0.0p+0', '0x1.133590704cd61p-1', '0x1.2f38bb06b3be2p+5'),
    ),
    ('2.5d-active', 1, True): (
        '0x1.4c794a10e6a60p+5', '0x1.5e05b712e608ep+1',
        ('0x0.0p+0', '0x1.133590704cd61p-1', '0x1.2f38bb06b3be2p+5'),
    ),
    ('2.5d-active', 2, False): (
        '0x1.a8c5989223816p+5', '0x1.6965d140a1be5p+2',
        ('0x0.0p+0', '0x1.707e8261eb59fp-1', '0x1.96006a2af8caep+5'),
    ),
    ('2.5d-active', 2, True): (
        '0x1.e8d86477c9e6ep+5', '0x1.fdc2163d11bfbp+2',
        ('0x0.0p+0', '0x1.707e8261eb59fp-1', '0x1.96006a2af8caep+5'),
    ),
    ('2.5d-active', 3, False): (
        '0x1.08ac1e808b704p+6', '0x1.49420ca565182p+3',
        ('0x0.0p+0', '0x1.ceb8ad12bf2ebp-1', '0x1.fdd1df9a990acp+5'),
    ),
    ('2.5d-active', 3, True): (
        '0x1.3676db6db6db7p+6', '0x1.df85733f499f8p+3',
        ('0x0.0p+0', '0x1.ceb8ad12bf2ebp-1', '0x1.fdd1df9a990acp+5'),
    ),
    ('2.5d-active', 4, False): (
        '0x1.34a9755a2a976p+6', '0x1.f12a7b7ee73c6p+3',
        ('0x0.0p+0', '0x1.16f3402353a0ep+0', '0x1.3357e54b7e6d3p+6'),
    ),
    ('2.5d-active', 4, True): (
        '0x1.6f6a6d4da9b54p+6', '0x1.72f40b8df16a2p+4',
        ('0x0.0p+0', '0x1.16f3402353a0ep+0', '0x1.3357e54b7e6d3p+6'),
    ),
    ('2.5d-active', 5, False): (
        '0x1.58d95ccb1c65cp+6', '0x1.4eb3eec8487e1p+4',
        ('0x0.0p+0', '0x1.470539073d33ap+0', '0x1.684e70a958eabp+6'),
    ),
    ('2.5d-active', 5, True): (
        '0x1.9e53896e7bf53p+6', '0x1.fa89d1a4696a0p+4',
        ('0x0.0p+0', '0x1.470539073d33ap+0', '0x1.684e70a958eabp+6'),
    ),
    ('2.5d-active', 6, False): (
        '0x1.75e147ae147aep+6', '0x1.a11e34b8642d3p+4',
        ('0x0.0p+0', '0x1.77937f6c29216p+0', '0x1.9dcdf081af254p+6'),
    ),
    ('2.5d-active', 6, True): (
        '0x1.c366666666666p+6', '0x1.3d05c07c9fa2cp+5',
        ('0x0.0p+0', '0x1.77937f6c29216p+0', '0x1.9dcdf081af254p+6'),
    ),
    ('3d', 1, False): (
        '0x1.9a66666666666p+4', '0x1.094f2094f20b3p-2',
        ('0x0.0p+0', '0x1.6a052bf5a8174p-3', '0x1.8ede62433b7c6p+3'),
    ),
    ('3d', 1, True): (
        '0x1.bc7ae147ae148p+4', '0x1.1f5731f573216p-2',
        ('0x0.0p+0', '0x1.6a052bf5a8174p-3', '0x1.8ede62433b7c6p+3'),
    ),
    ('3d', 2, False): (
        '0x1.9a66666666666p+4', '0x1.7221a07078116p-1',
        ('0x0.0p+0', '0x1.133590704cd61p-1', '0x1.2f38bb06b3be2p+5'),
    ),
    ('3d', 2, True): (
        '0x1.bc7ae147ae148p+4', '0x1.8cfa99234114bp-1',
        ('0x0.0p+0', '0x1.133590704cd61p-1', '0x1.2f38bb06b3be2p+5'),
    ),
    ('3d', 3, False): (
        '0x1.9a66666666666p+4', '0x1.323a314665595p+0',
        ('0x0.0p+0', '0x1.cfaed2148d1abp-1', '0x1.fee1126f54270p+5'),
    ),
    ('3d', 3, True): (
        '0x1.bc7ae147ae148p+4', '0x1.47ba80e4ffcf6p+0',
        ('0x0.0p+0', '0x1.cfaed2148d1abp-1', '0x1.fee1126f54270p+5'),
    ),
    ('3d', 4, False): (
        '0x1.9a66666666666p+4', '0x1.addc944f9f2dbp+0',
        ('0x0.0p+0', '0x1.480060bc1e328p+0', '0x1.696328c0a3198p+6'),
    ),
    ('3d', 4, True): (
        '0x1.bc7ae147ae148p+4', '0x1.cb9aea8870b1ep+0',
        ('0x0.0p+0', '0x1.480060bc1e328p+0', '0x1.696328c0a3198p+6'),
    ),
    ('3d', 5, False): (
        '0x1.9a66666666666p+4', '0x1.1602723c31027p+1',
        ('0x0.0p+0', '0x1.aa1fbb867cd9ep+0', '0x1.d57f4e27d571ep+6'),
    ),
    ('3d', 5, True): (
        '0x1.bc7ae147ae148p+4', '0x1.2916288d28cbbp+1',
        ('0x0.0p+0', '0x1.aa1fbb867cd9ep+0', '0x1.d57f4e27d571ep+6'),
    ),
    ('3d', 6, False): (
        '0x1.9a66666666666p+4', '0x1.56602831a418bp+1',
        ('0x0.0p+0', '0x1.071fdd105f0c7p+1', '0x1.21e822a69bec5p+7'),
    ),
    ('3d', 6, True): (
        '0x1.bc7ae147ae148p+4', '0x1.6dbe621b816bfp+1',
        ('0x0.0p+0', '0x1.071fdd105f0c7p+1', '0x1.21e822a69bec5p+7'),
    ),
}


def test_pin_table_covers_the_grid():
    expected = {
        (name, n, sized)
        for name, factory in PIN_TECHS.items()
        for n in range(1, 7)
        if factory().supports_chip_count(n)
        for sized in (False, True)
    }
    assert set(PACKAGING_PINS) == expected


@pytest.mark.parametrize("key", sorted(PACKAGING_PINS), ids=str)
def test_packaging_bit_pinned(key):
    name, n, sized = key
    raw, defects, wasted = PACKAGING_PINS[key]
    tech = PIN_TECHS[name]()
    sized_for = PIN_SOCKETS[:n] if sized else None
    for kgd, waste in zip(PIN_KGDS, wasted):
        cost = tech.packaging_cost(PIN_CHIPS[:n], kgd, sized_for=sized_for)
        assert cost.raw_package.hex() == raw
        assert cost.package_defects.hex() == defects
        assert cost.wasted_kgd.hex() == waste
