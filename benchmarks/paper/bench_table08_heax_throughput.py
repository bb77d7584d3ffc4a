"""Table VIII: NTT/INTT/HMULT throughput against HEAX (parameter sets A/B/C)."""

from repro.gpu import A100
from repro.perf import ModelParameters, OperationModel, format_table
from repro.perf.literature import HEAX_PARAMETER_SETS, TABLE_VIII_HEAX_THROUGHPUT


def _throughputs():
    results = {}
    for set_name, config in HEAX_PARAMETER_SETS.items():
        parameters = ModelParameters(ring_degree=config["ring_degree"],
                                     level_count=config["level_count"],
                                     dnum=max(1, config["level_count"] // config["special_count"]),
                                     batch_size=128)
        model = OperationModel(parameters, gpu=A100)
        results[set_name] = {
            "NTT": model.throughput_ops_per_second("NTT"),
            "INTT": model.throughput_ops_per_second("NTT"),
            "HMULT": model.throughput_ops_per_second("HMULT"),
        }
    return results


def test_table08_heax_throughput(benchmark):
    modelled = benchmark(_throughputs)
    print()
    rows = []
    for kernel in ("NTT", "INTT", "HMULT"):
        for set_name in ("A", "B", "C"):
            paper = TABLE_VIII_HEAX_THROUGHPUT[kernel][set_name]
            rows.append([kernel, set_name, paper["CPU"], paper["HEAX"],
                         paper["TensorFHE"], modelled[set_name][kernel]])
    print(format_table(["kernel", "set", "CPU (paper)", "HEAX (paper)",
                        "TensorFHE (paper)", "TensorFHE (model)"], rows,
                       title="Table VIII — throughput per second vs HEAX"))

    for set_name in ("A", "B", "C"):
        paper_row = TABLE_VIII_HEAX_THROUGHPUT["NTT"][set_name]
        # Shape: TensorFHE's NTT throughput clearly beats HEAX on every set,
        # and throughput falls monotonically from set A to set C.
        assert modelled[set_name]["NTT"] > paper_row["HEAX"]
    assert modelled["A"]["NTT"] > modelled["B"]["NTT"] > modelled["C"]["NTT"]
    assert modelled["A"]["HMULT"] > modelled["C"]["HMULT"]
