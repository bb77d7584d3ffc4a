"""The runtime never imports the paper model.

``repro.gpu`` and ``repro.perf`` are the analytical model of the paper's
evaluation; nothing a launch executes may depend on them.  The model may
import the runtime, not the other way round.
"""

import ast
import importlib.util
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
MODEL_PACKAGES = ("repro.gpu", "repro.perf")

_LAUNCH_PATH = """
import sys

# Blocked: importing either package now raises ImportError.
for package in %(model)r:
    sys.modules[package] = None
import repro.api.facade
import repro.batching.scheduler
for package in %(model)r:
    del sys.modules[package]

import numpy as np
import repro

fhe = repro.TensorFheContext(
    repro.CkksParameters(ring_degree=64, level_count=4, dnum=2,
                         secret_hamming_weight=8),
    seed=11, rotation_steps=(1,))
values = np.linspace(-1, 1, fhe.slot_count)
streams = [fhe.encrypt(values), fhe.encrypt(values)]
rotated = fhe.rotate_many(fhe.multiply_many(streams, streams), 1)
assert np.allclose(fhe.decrypt(rotated[0]).real, np.roll(values * values, -1),
                   atol=1e-3)
engine = fhe.create_serving_engine()
assert engine.scheduler.plan(fhe.context.ring_degree, 4).batch_size >= 1

loaded = sorted(name for name in sys.modules if name.startswith(%(model)r))
assert not loaded, "model modules on the launch path: %%s" %% loaded
""" % {"model": MODEL_PACKAGES}


def _is_model(module):
    return any(module == package or module.startswith(package + ".")
               for package in MODEL_PACKAGES)


def _imported_modules(path, package):
    """Absolute names of every module ``path`` imports (``package`` is its own)."""
    with open(path) as handle:
        tree = ast.parse(handle.read(), path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            module = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), package)
            yield module
            for alias in node.names:        # ``from . import gpu``
                yield "%s.%s" % (module, alias.name)


def test_no_runtime_module_imports_the_model():
    offenders = []
    root = os.path.join(SRC, "repro")
    for directory, _, files in os.walk(root):
        package = os.path.relpath(directory, SRC).replace(os.sep, ".")
        if _is_model(package):
            continue
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                offenders += ["%s imports %s" % (os.path.relpath(path, SRC), module)
                              for module in _imported_modules(path, package)
                              if _is_model(module)]
    assert not offenders, offenders


def test_launch_path_loads_no_model_module():
    """Fresh interpreter: facade and scheduler import with the model blocked,
    and a full encrypt → evaluate → decrypt → serve-plan pass loads none of it."""
    environment = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, "-c", _LAUNCH_PATH], env=environment,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
