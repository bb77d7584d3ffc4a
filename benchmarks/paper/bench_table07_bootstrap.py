"""Table VII: Bootstrap execution time (N=2^16, L=34, dnum=5, batch 128)."""

from repro.perf import NttVariant, WorkloadModel, format_table
from repro.perf.literature import TABLE_VII_BOOTSTRAP_SECONDS
from repro.workloads import WorkloadSpec, OperationCounts

BOOTSTRAP_WORKLOAD = WorkloadSpec(
    name="bootstrap_table7",
    ring_degree=1 << 16,
    level_count=35,
    batch_size=128,
    iterations=1,
    operations_per_iteration=OperationCounts(),
    bootstraps_per_run=1,
    dnum=5,
)


def _bootstrap_times():
    times = {}
    for variant, label in ((NttVariant.BUTTERFLY, "TensorFHE-NT"),
                           (NttVariant.GEMM_CUDA, "TensorFHE-CO"),
                           (NttVariant.GEMM_TCU, "TensorFHE")):
        times[label] = WorkloadModel(variant=variant).bootstrap_time(
            BOOTSTRAP_WORKLOAD, batch_size=128)
    return times


def test_table07_bootstrap(benchmark):
    modelled = benchmark(_bootstrap_times)
    print()
    rows = [[name, seconds, None] for name, seconds in TABLE_VII_BOOTSTRAP_SECONDS.items()]
    rows += [["model/" + name, None, seconds] for name, seconds in modelled.items()]
    print(format_table(["scheme", "paper (s)", "model (s)"], rows,
                       title="Table VII — Bootstrap execution time"))

    # Shape: the full TensorFHE configuration is the fastest of the three
    # variants and beats the paper's 100x number; also a dnum ablation below.
    assert modelled["TensorFHE"] < modelled["TensorFHE-CO"]
    assert modelled["TensorFHE"] < modelled["TensorFHE-NT"]
    assert modelled["TensorFHE"] < TABLE_VII_BOOTSTRAP_SECONDS["100x"]


def test_table07_dnum_ablation(benchmark):
    """Ablation: the dnum decomposition number trades key size for work."""
    def sweep():
        results = {}
        for dnum in (1, 3, 5, 9):
            spec = WorkloadSpec(
                name="bootstrap_dnum%d" % dnum, ring_degree=1 << 16, level_count=35,
                batch_size=128, iterations=1,
                operations_per_iteration=OperationCounts(), bootstraps_per_run=1,
                dnum=dnum)
            results[dnum] = WorkloadModel().bootstrap_time(spec, batch_size=128)
        return results

    results = benchmark(sweep)
    print()
    print(format_table(["dnum", "bootstrap time (s)"],
                       [[k, v] for k, v in results.items()],
                       title="Ablation — key-switch decomposition number"))
    assert all(value > 0 for value in results.values())
