"""The package's import structure, read from its source with ``ast`` and
importing nothing: the settings readers have one home, which depends on no
other pao module, and the modules that only read settings do not reach them
through the kernel."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pao"


def pao_imports(path):
    """The pao modules that the source file ``path`` imports from."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "pao"):
            module = (node.module or "").removeprefix("pao").lstrip(".")
            found |= {module} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name[4:] for alias in node.names if alias.name.startswith("pao.")}
    return found


IMPORTS = {path.stem: pao_imports(path) for path in SRC.glob("*.py")}


def test_settings_imports_no_pao_module():
    assert IMPORTS["settings"] == set()


@pytest.mark.parametrize("module", ["attractors", "baselines", "benchmarks", "harness", "records"])
def test_a_module_that_only_reads_settings_does_not_import_the_kernel(module):
    assert "kernel" not in IMPORTS[module]
