"""Tests for the cost/operation/workload/energy models and the report helpers."""

import pytest

from model.gpu import A100, GTX1080TI, V100
from model.perf import (
    CostModelConfig,
    EnergyModel,
    GpuCostModel,
    KernelWorkload,
    ModelParameters,
    NttVariant,
    OperationModel,
    OPERATIONS,
    WorkloadModel,
    conv_workload,
    elementwise_workload,
    format_comparison,
    format_table,
    hadamard_workload,
    literature,
    ntt_workload,
    ratio,
)
from model.workloads import WORKLOADS

DEFAULT = ModelParameters(ring_degree=1 << 16, level_count=45, dnum=5, batch_size=128)


class TestKernelWorkloads:
    def test_ntt_workload_scales_with_batch(self):
        single = ntt_workload(1 << 14, 10, 1, NttVariant.GEMM_TCU)
        batched = ntt_workload(1 << 14, 10, 16, NttVariant.GEMM_TCU)
        assert batched.tcu_macs == pytest.approx(16 * single.tcu_macs)

    def test_variants_use_different_resources(self):
        butterfly = ntt_workload(1 << 14, 1, 1, NttVariant.BUTTERFLY)
        tcu = ntt_workload(1 << 14, 1, 1, NttVariant.GEMM_TCU)
        assert butterfly.tcu_macs == 0 and butterfly.stall_bound
        assert tcu.tcu_macs > 0 and not tcu.stall_bound

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            ntt_workload(1 << 10, 1, 1, "systolic")

    def test_scaled(self):
        workload = hadamard_workload(1 << 10, 4, 2)
        doubled = workload.scaled(2)
        assert doubled.cuda_int_ops == 2 * workload.cuda_int_ops

    def test_conv_workload_scales_with_both_bases(self):
        small = conv_workload(1 << 10, 2, 4, 1)
        large = conv_workload(1 << 10, 4, 8, 1)
        assert large.cuda_int_ops == 4 * small.cuda_int_ops

    def test_elementwise_kernel_name(self):
        assert elementwise_workload("Ele-Sub", 1 << 10, 2, 1).kernel == "Ele-Sub"


class TestCostModel:
    def test_batched_faster_than_unbatched(self):
        model = GpuCostModel(A100)
        workload = ntt_workload(1 << 16, 45, 1, NttVariant.GEMM_CUDA)
        assert model.kernel_time(workload, batch_size=128) < \
            model.kernel_time(workload, batch_size=1)

    def test_tcu_kernel_on_gpu_without_tensor_cores_rejected(self):
        model = GpuCostModel(GTX1080TI)
        with pytest.raises(ValueError):
            model.kernel_time(ntt_workload(1 << 14, 1, 1, NttVariant.GEMM_TCU))

    def test_stall_bound_kernels_are_derated(self):
        config = CostModelConfig()
        model = GpuCostModel(A100, config)
        free = KernelWorkload("NTT", cuda_int_ops=1e9)
        bound = KernelWorkload("NTT", cuda_int_ops=1e9, stall_bound=True)
        assert model.kernel_time(bound, batch_size=128) > \
            model.kernel_time(free, batch_size=128)

    def test_memory_bound_kernel_uses_bandwidth(self):
        model = GpuCostModel(A100)
        workload = KernelWorkload("Ele-Add", cuda_int_ops=1.0, bytes_moved=1e9)
        elapsed = model.kernel_time(workload, batch_size=128)
        assert elapsed >= 1e9 / A100.memory_bandwidth_bytes_per_second


class TestOperationModel:
    def test_all_operations_priced(self):
        model = OperationModel(DEFAULT, gpu=A100, variant=NttVariant.GEMM_TCU)
        times = model.all_operation_times_us()
        assert set(times) == set(OPERATIONS)
        assert all(value > 0 for value in times.values())

    def test_variant_ordering_matches_table_vi(self):
        """Table VI: TensorFHE < TensorFHE-CO < TensorFHE-NT for HMULT."""
        times = {}
        for variant in NttVariant.ALL:
            times[variant] = OperationModel(DEFAULT, gpu=A100,
                                            variant=variant).operation_time_us("HMULT")
        assert times[NttVariant.GEMM_TCU] < times[NttVariant.GEMM_CUDA] \
            < times[NttVariant.BUTTERFLY]

    def test_hmult_and_hrotate_dominate(self):
        model = OperationModel(DEFAULT, gpu=A100)
        times = model.all_operation_times_us()
        assert times["HMULT"] > 10 * times["HADD"]
        assert times["HROTATE"] > 10 * times["HADD"]
        assert abs(times["HMULT"] - times["HROTATE"]) / times["HMULT"] < 0.25

    def test_a100_faster_than_v100(self):
        a100 = OperationModel(DEFAULT, gpu=A100).operation_time_us("HMULT")
        v100 = OperationModel(DEFAULT, gpu=V100).operation_time_us("HMULT")
        assert a100 < v100

    def test_batching_improves_amortised_latency(self):
        unbatched = OperationModel(DEFAULT, gpu=A100, batched=False)
        batched = OperationModel(DEFAULT, gpu=A100, batched=True)
        assert batched.operation_time_us("HMULT") < unbatched.operation_time_us("HMULT")

    def test_ntt_dominates_hmult_breakdown(self):
        """Figure 11: the NTT kernel takes the largest share of HMULT."""
        model = OperationModel(DEFAULT, gpu=A100)
        breakdown = model.kernel_breakdown("HMULT")
        assert breakdown["NTT"] == max(breakdown.values())
        assert abs(sum(breakdown.values()) - 1.0) < 1e-9

    def test_shorter_polynomials_are_faster(self):
        """Figure 15: execution time falls as N shrinks."""
        times = []
        for log_n in (16, 14, 12):
            params = ModelParameters(ring_degree=1 << log_n, level_count=20,
                                     dnum=5, batch_size=128)
            times.append(OperationModel(params, gpu=A100).operation_time_us("NTT"))
        assert times[0] > times[1] > times[2]

    def test_larger_batch_not_slower(self):
        """Figure 14: larger batches amortise launch overhead."""
        small = ModelParameters(ring_degree=1 << 16, level_count=45, dnum=5, batch_size=32)
        large = ModelParameters(ring_degree=1 << 16, level_count=45, dnum=5, batch_size=512)
        assert OperationModel(large, gpu=A100).operation_time_us("HADD") <= \
            OperationModel(small, gpu=A100).operation_time_us("HADD")

    def test_unknown_operation_rejected(self):
        with pytest.raises(ValueError):
            OperationModel(DEFAULT).operation_time("HBOGUS")

    def test_alpha_and_extended_limbs(self):
        assert DEFAULT.alpha == 9
        assert DEFAULT.extended_limbs == 45 + 9


class TestWorkloadModel:
    def test_all_workloads_priced(self):
        model = WorkloadModel()
        for name, workload in WORKLOADS.items():
            timings = model.evaluate(workload)
            assert timings.total_seconds > 0
            assert abs(sum(timings.operation_breakdown().values()) - 1.0) < 1e-9
            assert abs(sum(timings.kernel_breakdown().values()) - 1.0) < 1e-9

    def test_workload_ordering_matches_table_x(self):
        """Table X shape: ResNet-20 slowest, LR fastest of the DNN workloads."""
        model = WorkloadModel()
        times = {name: model.evaluate(w).total_seconds for name, w in WORKLOADS.items()}
        assert times["resnet20"] > times["lstm"] > times["lr"]

    def test_tensorfhe_beats_f1plus_on_lr(self):
        """The paper's headline: 2.9x faster than F1+ on logistic regression."""
        model = WorkloadModel()
        modelled = model.evaluate(WORKLOADS["lr"]).total_seconds
        assert modelled < literature.TABLE_X_WORKLOAD_SECONDS["F1+"]["lr"]

    def test_tensorfhe_slower_than_craterlake(self):
        model = WorkloadModel()
        for name in ("resnet20", "lr", "lstm"):
            modelled = model.evaluate(WORKLOADS[name]).total_seconds
            assert modelled > literature.TABLE_X_WORKLOAD_SECONDS["CraterLake"][name]

    def test_tcu_variant_fastest_for_bootstrap(self):
        """Table VII shape: full TensorFHE beats the -NT and -CO variants."""
        times = {}
        for variant in NttVariant.ALL:
            model = WorkloadModel(variant=variant)
            times[variant] = model.bootstrap_time(WORKLOADS["packed_bootstrapping"], 128)
        assert times[NttVariant.GEMM_TCU] < times[NttVariant.BUTTERFLY]
        assert times[NttVariant.GEMM_TCU] < times[NttVariant.GEMM_CUDA]

    def test_hrotate_dominates_operation_breakdown(self):
        """Figure 13: HROTATE is the most time-consuming operation."""
        model = WorkloadModel()
        breakdown = model.evaluate(WORKLOADS["resnet20"]).operation_breakdown()
        assert breakdown["HROTATE"] == max(breakdown.values())

    def test_ntt_dominates_kernel_breakdown(self):
        """Figure 12: the NTT kernel dominates every workload."""
        model = WorkloadModel()
        for workload in WORKLOADS.values():
            breakdown = model.evaluate(workload).kernel_breakdown()
            assert breakdown["NTT"] == max(breakdown.values())
            assert breakdown["NTT"] > 0.5


class TestEnergyAndLiterature:
    def test_energy_model(self):
        energy = EnergyModel(264.0)
        assert energy.joules_per_iteration(2.0) == pytest.approx(528.0)
        assert energy.operations_per_watt(1e-3) == pytest.approx(1000 / 264.0)
        with pytest.raises(ValueError):
            energy.operations_per_watt(0.0)

    def test_energy_table(self):
        energy = EnergyModel()
        table = energy.table_xi_operations({"HADD": 1e-6, "HMULT": 1e-3})
        assert table["HADD"] > table["HMULT"]

    def test_literature_tables_well_formed(self):
        assert set(literature.TABLE_IX_OCCUPANCY) == set(OPERATIONS)
        assert literature.TABLE_VI_OPERATION_DELAY_US["TensorFHE(A100)"]["HMULT"] == 851.0
        assert literature.TABLE_X_WORKLOAD_SECONDS["TensorFHE"]["lr"] == 14.1
        assert literature.HEADLINE_CLAIMS["speedup_over_100x"] == 2.61
        for kernel in ("NTT", "INTT", "HMULT"):
            assert set(literature.TABLE_VIII_HEAX_THROUGHPUT[kernel]) == {"A", "B", "C"}


class TestReportHelpers:
    def test_ratio(self):
        assert ratio(2.0, 1.0) == 0.5
        assert ratio(None, 1.0) is None
        assert ratio(2.0, None) is None

    def test_format_table_contains_rows(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", None]], title="demo")
        assert "demo" in text and "2.50" in text and "-" in text

    def test_format_comparison(self):
        text = format_comparison({"HMULT": 851.0}, {"HMULT": 900.0}, unit="us")
        assert "HMULT" in text and "1.06" in text
