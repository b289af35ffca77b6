"""Every third-party module the library imports is a declared dependency.

``src/repro`` is parsed with ``ast`` and each absolute import's top-level
module that is neither in the standard library nor ``repro`` itself must
be named in ``pyproject.toml``'s ``[project] dependencies``.  CI installs
``requirements-dev.txt``, so that file must list every declared
dependency too.  Import names are compared with distribution names after
lower-casing and mapping ``-`` to ``_``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib", reason="tomllib needs Python 3.11+")

ROOT = Path(__file__).resolve().parents[1]


def distribution(requirement: str) -> str:
    """The normalized distribution name of a requirement line."""
    name = re.match(r"\s*([A-Za-z0-9][A-Za-z0-9._-]*)", requirement).group(1)
    return name.lower().replace("-", "_")


def third_party_imports(package: Path) -> dict[str, str]:
    """Top-level module -> the first file importing it, outside the stdlib."""
    found: dict[str, str] = {}
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, str(path.relative_to(ROOT)))
    return found


@pytest.fixture(scope="module")
def declared() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    return {distribution(req) for req in project["project"]["dependencies"]}


def test_third_party_imports_are_declared(declared):
    if not hasattr(sys, "stdlib_module_names"):
        pytest.skip("sys.stdlib_module_names needs Python 3.10+")
    imports = third_party_imports(ROOT / "src" / "repro")
    assert "numpy" in imports
    missing = {name: path for name, path in imports.items() if name.lower() not in declared}
    assert not missing, f"imported but not in pyproject.toml dependencies: {missing}"


def test_dev_requirements_install_every_dependency(declared):
    lines = (ROOT / "requirements-dev.txt").read_text(encoding="utf-8").splitlines()
    listed = {distribution(line) for line in lines if line.strip() and not line.startswith("#")}
    assert declared <= listed, f"missing from requirements-dev.txt: {declared - listed}"
