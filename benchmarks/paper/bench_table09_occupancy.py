"""Table IX: GPGPU occupancy of the batched TensorFHE operations."""

from repro.gpu import A100, OccupancyModel
from repro.perf import format_comparison
from repro.perf.literature import TABLE_IX_OCCUPANCY


def _occupancy():
    return OccupancyModel(A100).table_ix(batch_size=128, limbs=45, ring_degree=1 << 16)


def test_table09_occupancy(benchmark):
    modelled = benchmark(_occupancy)
    print()
    print(format_comparison(TABLE_IX_OCCUPANCY, modelled, unit="%",
                            title="Table IX — GPU occupancy with operation batching"))

    # Shape: all operations above 80%, NTT-heavy ones the highest — within a
    # few points of the paper's measured 85-90%.
    for operation, paper_value in TABLE_IX_OCCUPANCY.items():
        assert modelled[operation] > 80.0
        assert abs(modelled[operation] - paper_value) < 12.0
    assert modelled["HMULT"] >= modelled["HADD"]
