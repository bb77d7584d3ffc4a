"""Tests for the GPU performance-model substrate (specs, stalls, occupancy, memory)."""

import pytest

from repro.batching import BatchScheduler

from model.gpu import (
    A100,
    BUILTIN_PROFILES,
    BUTTERFLY_NTT,
    DWT,
    FFT,
    GEMM_NTT,
    GTX1080TI,
    MemoryTrafficModel,
    OccupancyModel,
    PipelineStallModel,
    StallCategory,
    V100,
)


class TestGpuSpecs:
    def test_a100_peaks(self):
        # 108 SMs x 64 cores x 1.41 GHz ~ 9.7 TOPS INT32.
        assert 9e12 < A100.peak_int32_ops_per_second < 11e12
        # Tensor-core INT8 peak ~ 624 TOPS.
        assert 5.5e14 < A100.peak_tensor_int8_macs_per_second < 7e14
        assert A100.vram_gb == 40.0

    def test_v100_slower_than_a100(self):
        assert V100.peak_tensor_int8_macs_per_second < A100.peak_tensor_int8_macs_per_second
        assert V100.memory_bandwidth_gbps < A100.memory_bandwidth_gbps

    def test_1080ti_has_no_tensor_cores(self):
        assert GTX1080TI.peak_tensor_int8_macs_per_second == 0.0


class TestPipelineStallModel:
    def test_ntt_stall_breakdown_matches_paper_shape(self):
        """Figure 4: ~43% total stalls for NTT, RAW the largest share."""
        model = PipelineStallModel()
        breakdown = model.stall_breakdown(BUTTERFLY_NTT)
        total = model.total_stall_fraction(BUTTERFLY_NTT)
        assert 30.0 < total < 55.0
        assert breakdown[StallCategory.RAW] == max(breakdown.values())
        assert 15.0 < breakdown[StallCategory.RAW] < 30.0

    def test_all_profiles_have_positive_stalls(self):
        model = PipelineStallModel()
        for profile in BUILTIN_PROFILES.values():
            assert model.total_stall_fraction(profile) > 0

    def test_ntt_stalls_exceed_fft_and_dwt_raw(self):
        """NTT's modulo pressure gives it the worst function-unit stalls."""
        model = PipelineStallModel()
        ntt = model.stall_breakdown(BUTTERFLY_NTT)
        fft = model.stall_breakdown(FFT)
        dwt = model.stall_breakdown(DWT)
        assert ntt[StallCategory.FUNCTION_UNIT] > fft[StallCategory.FUNCTION_UNIT]
        assert ntt[StallCategory.FUNCTION_UNIT] > dwt[StallCategory.FUNCTION_UNIT]

    def test_gemm_ntt_reduces_raw_and_latency(self):
        """Figure 10: the GEMM formulation removes most RAW and latency stalls."""
        model = PipelineStallModel()
        reduction = model.compare(BUTTERFLY_NTT, GEMM_NTT)
        assert reduction[StallCategory.RAW] > 10.0
        assert reduction[StallCategory.LONG_LATENCY] > 0.0

    def test_gemm_ntt_speedup_in_paper_range(self):
        """Paper: 32.3% overall NTT improvement despite +1.2% computation."""
        model = PipelineStallModel()
        speedup = model.speedup_estimate(BUTTERFLY_NTT, GEMM_NTT, compute_overhead=0.012)
        assert 1.15 < speedup < 1.75

    def test_results_cached(self):
        model = PipelineStallModel()
        model.stall_breakdown(BUTTERFLY_NTT)
        assert BUTTERFLY_NTT.name in model.results_cache


class TestOccupancyModel:
    def test_unbatched_occupancy_is_low(self):
        """Figure 5: even the best thread count stays below ~15% occupancy."""
        model = OccupancyModel(A100)
        for threads in (8192, 16384, 32768):
            result = model.occupancy_for_threads(threads, work_elements=1 << 16)
            assert result.occupancy_percent < 20.0

    def test_occupancy_rises_then_time_worsens_at_32k(self):
        """Figure 5 shape: 16K threads beat 8K, 32K hurts memory efficiency."""
        model = OccupancyModel(A100)
        t8 = model.occupancy_for_threads(8192, work_elements=1 << 17)
        t16 = model.occupancy_for_threads(16384, work_elements=1 << 17)
        t32 = model.occupancy_for_threads(32768, work_elements=1 << 17)
        assert t16.occupancy_percent > t8.occupancy_percent
        assert t16.normalized_time < t8.normalized_time
        assert t32.normalized_time > t16.normalized_time

    def test_batched_occupancy_matches_table_ix(self):
        """Table IX: batched operations exceed 85% occupancy, HMULT/HROTATE highest."""
        model = OccupancyModel(A100)
        table = model.table_ix(batch_size=128, limbs=45, ring_degree=1 << 16)
        assert all(value > 80.0 for value in table.values())
        assert table["HMULT"] >= table["HADD"]
        assert table["HROTATE"] >= table["HADD"]

    def test_tiny_batch_has_lower_occupancy(self):
        model = OccupancyModel(A100)
        small = model.occupancy_for_batch(1, 2, 1 << 10)
        large = model.occupancy_for_batch(128, 45, 1 << 16)
        assert small < large


class TestMemoryModel:
    def test_efficiency_monotone_in_run_length(self):
        model = MemoryTrafficModel(A100)
        assert model.efficiency_for_run_length(128) < model.efficiency_for_run_length(1 << 12)
        assert model.efficiency_for_run_length(1 << 12) <= model.efficiency_for_run_length(1 << 22)

    def test_layout_speedup_grows_with_batch(self):
        """Figure 9: the (L,B,N) layout pays off more for larger batches."""
        model = MemoryTrafficModel(A100)
        assert model.layout_speedup(128, 1 << 16) >= model.layout_speedup(8, 1 << 16) >= 1.0

    def test_transfer_time_positive(self):
        model = MemoryTrafficModel(A100)
        assert model.transfer_time(1 << 30, 1 << 20) > 0
        assert model.transfer_time(0, 1 << 20) == 0.0

    def test_layout_run_lengths(self):
        model = MemoryTrafficModel(A100)
        assert model.layout_run_length("(L,B,N)", 128, 1 << 16) == \
            128 * model.layout_run_length("(B,L,N)", 128, 1 << 16)
        with pytest.raises(ValueError):
            model.layout_run_length("bogus", 2, 64)


class TestBatchScheduler:
    """The runtime's default device budget is the model's A100."""

    #: Today's planned sizes with no ``requested`` cap.
    PINNED_SIZES = {(4096, 9): 128, (1024, 15): 256, (128, 15): 2048,
                    (65536, 45): 2}

    @pytest.mark.parametrize("limbs", [1, 9, 15, 45])
    @pytest.mark.parametrize("ring_degree", [64, 128, 1024, 4096, 65536])
    def test_default_device_is_the_a100(self, ring_degree, limbs):
        """``batching/scheduler.py``'s two constants are ``gpu/spec.py``'s A100 figures."""
        # BatchPlan is a dataclass: equality is field by field.
        assert (BatchScheduler().plan(ring_degree, limbs)
                == BatchScheduler(A100).plan(ring_degree, limbs))
        if (ring_degree, limbs) in self.PINNED_SIZES:
            pinned = BatchScheduler().plan(ring_degree, limbs)
            assert pinned.batch_size == self.PINNED_SIZES[ring_degree, limbs]
