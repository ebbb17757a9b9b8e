"""Unit tests for the workload harnesses (perftest, GDR sweeps, startup)."""

import pytest

from repro import calibration
from repro.rnic import BaseRnic
from repro.sim.units import transfer_time
from repro.workloads import (
    AtcMissExperiment,
    PROFILES,
    default_gdr_sizes,
    default_message_sizes,
    emtt_sweep,
    gdr_datapath_curve,
    run_functional_perftest,
    run_perftest,
    write_bandwidth,
    write_latency,
)


class TestPerftestModel:
    def test_sweep_sizes_are_powers_of_two(self):
        sizes = default_message_sizes()
        assert sizes[0] == 2
        assert sizes[-1] == 8 * 1024 * 1024
        assert all(b == 2 * a for a, b in zip(sizes, sizes[1:]))

    def test_vstellar_matches_bare_metal(self):
        """Figure 13's headline: the two curves are identical."""
        bare = run_perftest("bare_metal")
        virt = run_perftest("vstellar")
        for b, v in zip(bare, virt):
            assert v.latency == pytest.approx(b.latency)
            assert v.bandwidth == pytest.approx(b.bandwidth)

    def test_vxlan_small_message_latency_overhead(self):
        """+7% at 8 B (the paper's measured penalty)."""
        bare = write_latency(PROFILES["bare_metal"], 8)
        vxlan = write_latency(PROFILES["vf_vxlan_cx7"], 8)
        assert (vxlan - bare) / bare == pytest.approx(0.07, rel=0.02)

    def test_vxlan_large_message_bandwidth_loss(self):
        """-9% at 8 MB."""
        bare = write_bandwidth(PROFILES["bare_metal"], 8 * 1024 * 1024)
        vxlan = write_bandwidth(PROFILES["vf_vxlan_cx7"], 8 * 1024 * 1024)
        assert 1 - vxlan / bare == pytest.approx(0.09, abs=0.005)

    def test_bandwidth_monotone_in_size(self):
        rows = run_perftest("bare_metal")
        bandwidths = [r.bandwidth for r in rows]
        assert bandwidths == sorted(bandwidths)
        assert bandwidths[-1] <= calibration.RNIC_TOTAL_RATE

    def test_functional_perftest_matches_model_shape(self):
        client, server = BaseRnic(name="pc"), BaseRnic(name="ps")
        rows = run_functional_perftest(client, server, [8, 4096, 1 << 20])
        assert rows[0].latency < rows[-1].latency
        assert rows[0].bandwidth < rows[-1].bandwidth
        # Small-message latency is dominated by the base op cost.
        # Base op cost plus the two MTT lookups (~50 ns).
        assert rows[0].latency == pytest.approx(
            calibration.RDMA_BASE_LATENCY_SECONDS, rel=0.05
        )


class TestAtcMissExperiment:
    @pytest.fixture(scope="class")
    def sweep(self):
        return AtcMissExperiment().sweep(
            sizes=[1 << 20, 2 << 20, 8 << 20, 64 << 20]
        )

    def test_three_regimes(self, sweep):
        """Figure 8: full rate <=2MB, ATC-miss plateau, IOTLB-miss floor."""
        by_size = {r.message_bytes: r for r in sweep}
        assert by_size[1 << 20].gbps == pytest.approx(190.0, rel=0.02)
        assert by_size[2 << 20].gbps == pytest.approx(190.0, rel=0.02)
        assert 160 < by_size[8 << 20].gbps < 180
        assert 135 < by_size[64 << 20].gbps < 160

    def test_hit_rates_explain_the_knees(self, sweep):
        by_size = {r.message_bytes: r for r in sweep}
        assert by_size[2 << 20].atc_hit_rate == pytest.approx(1.0)
        assert by_size[8 << 20].atc_hit_rate == pytest.approx(0.0)
        assert by_size[8 << 20].iotlb_hit_rate == pytest.approx(1.0)
        assert by_size[64 << 20].iotlb_hit_rate == pytest.approx(0.0)

    def test_emtt_curve_is_flat_at_line_rate(self):
        rows = emtt_sweep(sizes=[1 << 20, 64 << 20])
        assert rows[0].gbps == rows[1].gbps == pytest.approx(190.0)

    def test_monotone_nonincreasing(self, sweep):
        rates = [r.rate for r in sweep]
        assert all(a >= b - 1e-6 for a, b in zip(rates, rates[1:]))


def _per_page_measure(experiment, message_bytes):
    """Oracle for ``AtcMissExperiment.measure``: the per-page loop it replaced.

    Every page runs through ``DeviceAtc.translate`` one at a time, a warm
    cycle and then the capped measured window.
    """
    iommu, atc = experiment._build(message_bytes)  # simlint: ok L-private

    def access_stream():
        pages_per_conn = max(1, message_bytes // experiment.page_bytes)
        for page_index in range(pages_per_conn):
            offset = page_index * experiment.page_bytes
            for conn in range(experiment.connections):
                yield conn * message_bytes + offset

    for address in access_stream():
        atc.translate(address)
    atc.reset_counters()
    iommu.iotlb.reset_counters()
    wire_page = transfer_time(experiment.page_bytes, experiment.wire_rate)
    total_time = 0.0
    pcie_latency_sum = 0.0
    pages_measured = 0
    for address in access_stream():
        result = atc.translate(address)
        stall = (
            0.0 if result.atc_hit
            else result.latency / experiment.ats_pipeline_depth
        )
        total_time += wire_page + stall
        pcie_latency_sum += result.latency
        pages_measured += 1
        if pages_measured >= experiment.measure_cap_pages:
            break
    return (
        message_bytes,
        pages_measured * experiment.page_bytes * 8.0 / total_time,
        atc.cache.hit_rate,
        iommu.iotlb.hit_rate,
        pcie_latency_sum / pages_measured,
    )


def _row_fields(row):
    return (row.message_bytes, row.rate, row.atc_hit_rate,
            row.iotlb_hit_rate, row.avg_pcie_latency)


class TestAtcMissBatchDifferential:
    """The batched Fig 8 sweep equals the per-page loop, bit for bit."""

    def _check(self, experiment, sizes):
        for size in sizes:
            assert _row_fields(experiment.measure(size)) == \
                _per_page_measure(experiment, size)

    def test_default_sizes(self):
        self._check(AtcMissExperiment(), default_gdr_sizes())

    @pytest.mark.parametrize("scale", [0.5, 2])
    def test_ablation_atc_capacities(self, scale):
        capacity = int(calibration.ATC_CAPACITY_PAGES * scale)
        self._check(AtcMissExperiment(atc_capacity=capacity),
                    [1 << 20, 2 << 20, 4 << 20, 8 << 20])

    @pytest.mark.parametrize("cap", [1, 1000, 10**9])
    def test_measure_caps(self, cap):
        self._check(AtcMissExperiment(measure_cap_pages=cap),
                    [64 * 1024, 4 << 20])

    @pytest.mark.parametrize("field", ["connections", "page_bytes", "measure_cap_pages"])
    def test_rejects_non_positive_arguments(self, field):
        with pytest.raises(ValueError):
            AtcMissExperiment(**{field: 0})


class TestGdrDatapathCurve:
    def test_hyv_masq_capped_at_rc_ceiling(self):
        """Figure 14: RC-routed GDR tops out at ~141 Gbps, ~36% of 393."""
        hyv = gdr_datapath_curve("hyv_masq")
        stellar = gdr_datapath_curve("vstellar")
        peak_hyv = max(r.rate for r in hyv)
        peak_stellar = max(r.rate for r in stellar)
        assert peak_hyv <= calibration.GDR_RC_ROUTED_RATE
        assert peak_stellar > 0.97 * calibration.GDR_P2P_PEAK_RATE
        assert peak_hyv / peak_stellar == pytest.approx(0.36, abs=0.03)

    def test_bare_metal_equals_vstellar(self):
        bare = gdr_datapath_curve("bare_metal")
        virt = gdr_datapath_curve("vstellar")
        for b, v in zip(bare, virt):
            assert v.rate == pytest.approx(b.rate)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            gdr_datapath_curve("warp")


class TestDefaultSizes:
    def test_gdr_sizes_cover_the_knees(self):
        sizes = default_gdr_sizes()
        assert 2 * 1024 * 1024 in sizes
        assert 32 * 1024 * 1024 in sizes
        assert sizes[-1] == 64 * 1024 * 1024
