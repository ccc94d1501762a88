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


def test_ledger_imports_only_carbon_and_errors_from_the_package():
    from carbonledger import forecast, ledger

    imported = set()
    for node in ast.walk(ast.parse((PACKAGE_DIR / "ledger.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names if alias.name.startswith("carbonledger"))
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("carbonledger")):
            # "from . import carbon" imports the modules it names, "from .errors import X" one module
            imported.update([alias.name for alias in node.names] if node.module is None else [node.module])
    assert imported == {"carbon", "errors"}
    assert forecast.PhaseSummary is ledger.PhaseSummary is carbonledger.PhaseSummary
