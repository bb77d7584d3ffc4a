"""The paper model: the analytical A100 cost model behind Tables VI–XI.

:mod:`model.gpu` describes the devices and their pipeline, occupancy and
memory behaviour; :mod:`model.perf` prices kernels, operations and
workloads on them; :mod:`model.workloads` holds the operation mixes of the
paper's four applications.  The model imports the runtime (``repro``) for
the four-step split; the runtime never imports the model, which lives
outside the package.
"""
