"""Table VI: amortised operation delay across implementations."""

from bench_common import VARIANT_LABELS, default_model, v100_model
from repro.perf import OPERATIONS, format_table
from repro.perf.literature import TABLE_VI_OPERATION_DELAY_US


def _model_rows():
    rows = {}
    for variant, label in VARIANT_LABELS.items():
        rows[label] = default_model(variant).all_operation_times_us()
    rows["TensorFHE(V100)"] = v100_model().all_operation_times_us()
    return rows


def test_table06_operation_delay(benchmark):
    modelled = benchmark(_model_rows)
    print()
    rows = []
    for scheme, values in TABLE_VI_OPERATION_DELAY_US.items():
        rows.append(["paper/" + scheme] + [values.get(op) for op in OPERATIONS])
    for scheme, values in modelled.items():
        rows.append(["model/" + scheme] + [values[op] for op in OPERATIONS])
    print(format_table(["scheme"] + list(OPERATIONS), rows,
                       title="Table VI — operation delay (microseconds, amortised)"))

    paper = TABLE_VI_OPERATION_DELAY_US
    tensor = modelled["TensorFHE(A100)"]
    # Shape checks reproduced from the paper:
    # 1. variant ordering NT > CO > full TensorFHE for the NTT-heavy operations;
    for op in ("HMULT", "HROTATE"):
        assert modelled["TensorFHE-NT"][op] > modelled["TensorFHE-CO"][op] > tensor[op]
    # 2. A100 beats V100;
    assert tensor["HMULT"] < modelled["TensorFHE(V100)"]["HMULT"]
    # 3. TensorFHE beats the published 100x and CPU numbers by a large margin;
    assert tensor["HMULT"] < paper["100x"]["HMULT"]
    assert paper["CPU"]["HMULT"] / tensor["HMULT"] > 100.0
    # 4. HMULT/HROTATE are orders of magnitude more expensive than HADD.
    assert tensor["HMULT"] > 10 * tensor["HADD"]
