"""Every public name in ``src/repro`` serves the library or is declared.

The scan parses each module of ``src/repro`` with :mod:`ast`.  A public
name is a top-level function or class, or a method of a top-level class,
whose name does not start with ``_``.  It counts as referenced when some
module of ``src/repro`` uses it as a ``Name`` or an ``Attribute``, or
imports it outside an ``__init__.py`` (re-exports and ``__all__`` strings
do not count).  An unreferenced public name is test-only surface unless
:data:`ALLOWED` states why it stays.  The test fails on such a new name,
and on an allow-list entry that matches nothing any more (the name is
referenced again, or gone), so the list cannot rot.

Run as a script (standard library only) to print every unreferenced name
with its reason, or ``NEW``; it exits non-zero on a ``NEW`` or stale entry::

    python tests/test_library_surface.py
"""

import ast
import shutil
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

_ENTRY = "entry point"
_HOOK = "inspection hook"
_ITEM9 = "item 9: the e2e benchmark uses it; waits for the benchmark-only change"

#: Qualified name (or the prefix of one: a module or a class) -> reason.
ALLOWED = {
    "repro.api.facade.TensorFheContext": _ENTRY + ": the facade",
    "repro.serving.engine.ServingEngine": _ENTRY + ": the serving engine",
    "repro.workloads": _ENTRY + ": examples/serving_client.py",
    "repro.backend.registry.available_backends": _ENTRY + ": named in the README",
    "repro.batching.scheduler.BatchPlan.limited_by_vram": _ENTRY + ": examples/quickstart.py",
    "repro.ntt.four_step.FourStepNtt.float_plan": _HOOK + ": the transform's recipe",
    "repro.ntt.twiddle.clear_twiddle_stacks": _HOOK + ": drops the cached twiddle stacks",
    "repro.backend.residency.DeviceBuffer.invalidate_device":
        _HOOK + ": the handle-level invalidation contract",
    "repro.rns.modup.ModUp": _ITEM9 + " (trace.py imports the module)",
    "repro.rns.moddown.ModDown.apply_batch": _ITEM9 + " (tracer target)",
    "repro.numtheory.floatmod.BarrettChain.canonical_reduce": _ITEM9 + " (tracer target)",
    "repro.backend.base.ArrayBackend.to_device": _ITEM9 + " (tracer target)",
    "repro.backend.base.ArrayBackend.from_device": _ITEM9 + " (tracer target)",
    "repro.ckks.encryptor.Encryptor.encrypt_symmetric": _ITEM9 + " (tracer target)",
    "repro.kernels.base.KernelCounter.transfer_total": _ITEM9 + " (harness.py)",
    "repro.kernels.base.KernelContext.capture": _ITEM9 + " (harness.py)",
    "repro.ckks.evaluator.Evaluator.align": _ITEM9 + " (workloads.py)",
    "repro.ckks.keyswitch.KeySwitcher": _ITEM9 + " (tracer target)",
}


def _public_names(tree, module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                and not node.name.startswith("_"):
            yield node.name, "%s.%s" % (module, node.name)
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                            and not member.name.startswith("_"):
                        yield member.name, "%s.%s.%s" % (module, node.name, member.name)


def _references(tree, in_init):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and not in_init:
            for alias in node.names:
                yield from alias.name.split(".")
            if isinstance(node, ast.ImportFrom) and node.module:
                yield from node.module.split(".")


def unreferenced_names(package=PACKAGE):
    """Qualified public names of ``package`` that no module of it uses."""
    defined, referenced = [], set()
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = ".".join(path.relative_to(package.parent).with_suffix("").parts)
        module = module[: -len(".__init__")] if module.endswith(".__init__") else module
        defined.extend(_public_names(tree, module))
        referenced.update(_references(tree, path.name == "__init__.py"))
    return sorted(qualified for name, qualified in defined if name not in referenced)


def _entry_for(qualified):
    for entry in ALLOWED:
        if qualified == entry or qualified.startswith(entry + "."):
            return entry
    return None


def audit(names):
    """``(new, stale)``: unreferenced names off the list, entries matching none."""
    new = [name for name in names if _entry_for(name) is None]
    used = {_entry_for(name) for name in names}
    stale = [entry for entry in ALLOWED if entry not in used]
    return new, stale


def test_every_unreferenced_public_name_is_allowed():
    new, _ = audit(unreferenced_names())
    assert not new, "public names nothing in src/ uses: %s" % ", ".join(new)


def test_allow_list_has_no_stale_entry():
    _, stale = audit(unreferenced_names())
    assert not stale, "allow-list entries that match nothing: %s" % ", ".join(stale)


def test_scan_flags_a_new_test_only_function(tmp_path):
    package = tmp_path / "repro"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from .core import used, helper\n__all__ = ['used', 'helper']\n")
    (package / "core.py").write_text(
        "def used():\n    return Box().size()\n\n"
        "def helper():\n    return used()\n\n"
        "class Box:\n    def size(self):\n        return 1\n\n"
        "    def unused(self):\n        return 0\n")
    assert unreferenced_names(package) == ["repro.core.Box.unused", "repro.core.helper"]


#: Test-only functions that left ``src/``; none may come back unnoticed.
REMOVED_FUNCTIONS = ("generate_ntt_prime", "next_prime", "previous_prime",
                     "inverse_root_powers", "fuse_segments",
                     "schoolbook_negacyclic_multiply", "required_rotations",
                     "evaluate_polynomial", "segment_u32")
REMOVED_METHODS = ("compose", "compose_centered", "decompose", "decompose_array",
                   "log_total_modulus", "slot_rotation", "max_encodable_magnitude",
                   "invariant_noise_budget_bits", "available_steps",
                   "multiplicative_depth", "reference_mod", "invalidate_resident",
                   "to_integers")


def test_scan_flags_every_removed_function_restored(tmp_path):
    package = tmp_path / "repro"
    shutil.copytree(PACKAGE, package)
    restored = ["", "class Restored:"]
    restored += ["    def %s(self):\n        pass" % name for name in REMOVED_METHODS]
    restored += ["def %s():\n    pass" % name for name in REMOVED_FUNCTIONS]
    with open(package / "numtheory" / "primes.py", "a", encoding="utf-8") as module:
        module.write("\n\n".join(restored) + "\n")
    new, _ = audit(unreferenced_names(package))
    prefix = "repro.numtheory.primes."
    assert sorted(new) == sorted(
        [prefix + "Restored"]
        + [prefix + "Restored." + name for name in REMOVED_METHODS]
        + [prefix + name for name in REMOVED_FUNCTIONS])


def main():
    names = unreferenced_names()
    new, stale = audit(names)
    for name in names:
        entry = _entry_for(name)
        print("%-62s %s" % (name, ALLOWED[entry] if entry else "NEW"))
    for entry in stale:
        print("%-62s STALE: matches no unreferenced name" % entry)
    print("%d unreferenced public names, %d new, %d stale entries"
          % (len(names), len(new), len(stale)))
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
