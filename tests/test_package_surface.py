"""The package exports only code the package itself runs, and imports only
what it reads.

Every name ``mtgp/__init__.py`` imports must be used somewhere in the
package beyond its own definition and that import, so a second code path
that only tests call cannot be exported. Every name another module imports
must be read in that module, so deleting code leaves no import behind.
Every private top-level function, class and constant must be read somewhere
in the package, so deleting a caller leaves no helper behind. Every module
has a line in the README's module map, and every record's validation error
is an :class:`~mtgp.errors.MTGPError`, which a library caller can catch.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import mtgp
from mtgp.benchmark import ForresterParams
from mtgp.coregionalization import CoregionalizationTerm
from mtgp.errors import MTGPError
from mtgp.kernels import SQUARED_EXPONENTIAL, ScalarKernelSpec
from mtgp.training import MTGPFamily

PACKAGE = Path(mtgp.__file__).parent
README = Path(__file__).parents[1] / "README.md"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _exported_names() -> list[str]:
    return [
        alias.asname or alias.name
        for node in ast.walk(_parse(PACKAGE / "__init__.py"))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]


def _used_names() -> set[str]:
    """Names read (``name``) or looked up (``module.name``) outside ``__init__``."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_used_inside_the_package():
    exported = _exported_names()
    assert "run_study" in exported
    unused = sorted(set(exported) - _used_names())
    assert unused == [], f"exported but never used inside the package: {unused}"


def test_every_import_is_read_in_its_module():
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the exports
            continue
        tree = _parse(path)
        imported = {
            (alias.asname or alias.name).split(".")[0]  # ``import a.b`` binds ``a``
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [f"{path.name}: {name}" for name in sorted(imported - read)]
    assert unread == [], f"imported but never read: {unread}"


def test_every_private_definition_is_read_in_the_package():
    used = _used_names()
    orphaned = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            private = [n for n in names if n.startswith("_") and not n.startswith("__")]
            orphaned += [f"{path.name}: {name}" for name in private if name not in used]
    assert orphaned == [], f"private but never read: {orphaned}"


def test_readme_layout_names_every_module():
    block = README.read_text(encoding="utf-8").split("## Layout", 1)[1].split("```")[1]
    listed = set(re.findall(r"^  (\w+\.py) ", block, flags=re.MULTILINE))
    modules = {path.name for path in PACKAGE.glob("*.py")} - {"__init__.py", "__main__.py"}
    assert listed == modules


@pytest.mark.parametrize(
    "build",
    [
        lambda: ScalarKernelSpec("cubic", np.ones(1), 1.0),
        lambda: ScalarKernelSpec(SQUARED_EXPONENTIAL, np.zeros(1), 1.0),
        lambda: ScalarKernelSpec(SQUARED_EXPONENTIAL, np.ones(1), np.inf),
        lambda: CoregionalizationTerm(np.full((1, 1), np.nan), np.zeros(1), None),
        lambda: CoregionalizationTerm(np.ones((1, 1)), -np.ones(1), None),
        lambda: MTGPFamily(mode="dense"),
        lambda: ForresterParams(np.nan, 0.0),
    ],
    ids=[
        "kernel-kind", "lengthscales", "signal-variance", "W-not-finite",
        "gamma-negative", "family-mode", "forrester",
    ],
)
def test_validation_errors_are_package_errors(build):
    with pytest.raises(MTGPError):
        build()
