"""Table XI: energy efficiency of operations and workloads."""

from bench_common import default_model
from repro.perf import EnergyModel, OPERATIONS, WorkloadModel, format_table
from repro.perf.literature import TABLE_XI_ENERGY
from repro.workloads import WORKLOADS


def _energy():
    energy = EnergyModel(TABLE_XI_ENERGY["gpu_power_watts"])
    model = default_model()
    operation_efficiency = energy.table_xi_operations(
        {op: model.operation_time(op) for op in OPERATIONS})
    workload_model = WorkloadModel(power_watts=TABLE_XI_ENERGY["gpu_power_watts"])
    workload_energy = {name: workload_model.evaluate(spec).energy_joules
                       for name, spec in WORKLOADS.items()}
    return operation_efficiency, workload_energy


def test_table11_energy(benchmark):
    operation_efficiency, workload_energy = benchmark(_energy)
    print()
    rows = [[op, TABLE_XI_ENERGY["ops_per_watt"].get(op), operation_efficiency[op]]
            for op in OPERATIONS]
    print(format_table(["operation", "paper OPs/W", "model OPs/W"], rows,
                       title="Table XI — operation energy efficiency"))
    rows = []
    for name in WORKLOADS:
        paper_tf = TABLE_XI_ENERGY["joules_per_iteration"]["TensorFHE"].get(name)
        paper_cl = TABLE_XI_ENERGY["joules_per_iteration"]["CraterLake"].get(name)
        rows.append([name, paper_cl, paper_tf, workload_energy[name]])
    print(format_table(["workload", "CraterLake (paper J/iter)",
                        "TensorFHE (paper J/iter)", "TensorFHE (model J/iter)"], rows,
                       title="Table XI — workload energy per iteration"))

    # Shape: the cheap elementwise operations are far more energy-efficient
    # than the NTT-heavy ones, and the GPU burns much more energy per
    # iteration than the ASIC accelerators (the paper's conclusion).
    assert operation_efficiency["HADD"] > 10 * operation_efficiency["HMULT"]
    for name in ("resnet20", "lr"):
        paper_ark = TABLE_XI_ENERGY["joules_per_iteration"]["ARK"][name]
        assert workload_energy[name] > paper_ark
