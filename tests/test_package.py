from __future__ import annotations

import ast
import sys
from pathlib import Path

import carbonledger

PACKAGE_DIR = Path(carbonledger.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in carbonledger.__all__ if not hasattr(carbonledger, name)]
    assert missing == []


def test_package_imports_only_stdlib_and_itself():
    outside = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue  # relative imports stay inside the package
            for module in modules:
                top = module.split(".")[0]
                if top not in sys.stdlib_module_names and top != "carbonledger":
                    outside.append(f"{path.name}: {module}")
    assert outside == []
