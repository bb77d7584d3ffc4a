"""Tests for the workload catalogue and operation-count containers."""

from model.workloads import (
    BOOTSTRAP_OPERATIONS,
    OperationCounts,
    WORKLOADS,
    WorkloadSpec,
)


class TestOperationCounts:
    def test_as_dict_and_total(self):
        counts = OperationCounts(hmult=1, hrotate=2, rescale=3, hadd=4, cmult=5)
        assert counts.as_dict() == {"HMULT": 1, "HROTATE": 2, "RESCALE": 3,
                                    "HADD": 4, "CMULT": 5}
        assert counts.total() == 15

    def test_scaled(self):
        counts = OperationCounts(hmult=2, hadd=3).scaled(4)
        assert counts.hmult == 8 and counts.hadd == 12


class TestCatalog:
    def test_all_four_workloads_present(self):
        assert set(WORKLOADS) == {"resnet20", "lr", "lstm", "packed_bootstrapping"}

    def test_parameters_match_table_v(self):
        assert WORKLOADS["resnet20"].ring_degree == 1 << 16
        assert WORKLOADS["resnet20"].level_count == 30
        assert WORKLOADS["lr"].level_count == 39
        assert WORKLOADS["lstm"].ring_degree == 1 << 15
        assert WORKLOADS["packed_bootstrapping"].level_count == 58
        assert WORKLOADS["lr"].iterations == 14
        assert WORKLOADS["lstm"].packed_inputs == 32

    def test_lr_has_three_bootstraps(self):
        assert WORKLOADS["lr"].bootstraps_per_run == 3

    def test_packed_bootstrapping_is_pure_bootstrap(self):
        workload = WORKLOADS["packed_bootstrapping"]
        assert workload.operations_per_iteration.total() == 0
        assert workload.bootstraps_per_run == 32

    def test_bootstrap_operations_rotation_heavy(self):
        counts = BOOTSTRAP_OPERATIONS.as_dict()
        assert counts["HROTATE"] > counts["HMULT"]

    def test_total_operations_scale_with_iterations(self):
        workload = WORKLOADS["lr"]
        totals = workload.total_operations()
        assert totals.hrotate == workload.operations_per_iteration.hrotate * 14

    def test_custom_spec(self):
        spec = WorkloadSpec(name="tiny", ring_degree=1 << 12, level_count=5,
                            batch_size=4, iterations=2,
                            operations_per_iteration=OperationCounts(hadd=7))
        assert spec.total_operations().hadd == 14
