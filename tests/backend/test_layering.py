"""Import layering of the residency handle, read from the source with ``ast``.

``repro.backend.residency`` is the bottom of the stack: every layer reads
handles, so the handle module itself may import no other ``repro`` module
(a lazy import inside a function counts too).  And the blas backend is
reached through the registry, never imported by name from outside
``repro.backend``: what a layer needs of a float image it reads off the
handle.
"""

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path: Path):
    """Every module ``path`` imports, relative imports made absolute.

    ``from package import name`` yields both ``package`` and
    ``package.name``, since ``name`` may be a submodule.
    """
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[:len(base) - node.level + 1]
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module
            yield target
            yield from (target + "." + alias.name for alias in node.names)


def test_residency_imports_no_other_repro_module():
    path = PACKAGE / "backend" / "residency.py"
    assert [name for name in _imports(path)
            if name == "repro" or name.startswith("repro.")] == []


def test_only_the_backend_package_imports_the_blas_backend():
    offenders = sorted(
        _module_name(path) for path in PACKAGE.rglob("*.py")
        if PACKAGE / "backend" not in path.parents
        and "repro.backend.blas_backend" in set(_imports(path)))
    assert offenders == []
