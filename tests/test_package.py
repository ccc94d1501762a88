from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import carbonledger
from carbonledger import carbon, cli, kgverb, probe
from carbonledger.errors import ConfigParseError, MalformedRow, RegistryParseError, TraceParseError

from conftest import make_record

PACKAGE_DIR = Path(carbonledger.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in carbonledger.__all__ if not hasattr(carbonledger, name)]
    assert missing == []


def _fresh(code: str, *argv: str) -> tuple[str, set[str]]:
    """Run ``code`` with ``argv`` in a new ``python -S``; returns its output
    and the modules it then holds. Nothing is timed."""
    report = "\nimport sys\nprint(*sorted(sys.modules), file=sys.__stdout__)"
    env = {key: value for key, value in os.environ.items() if not key.startswith("CARBONLEDGER_")}
    env["PYTHONPATH"] = str(PACKAGE_DIR.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code + report, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    *output, modules = proc.stdout.splitlines()
    return "\n".join(output), set(modules.split())


# What only run (and predict) may load: the measurement stack and the child's plumbing.
RUN_ONLY = {
    "carbonledger.sampler", "carbonledger.probe", "carbonledger.forecast", "carbonledger.energy",
    "subprocess", "threading", "uuid",
}


@pytest.mark.parametrize("command", ["report text", "report csv", "report json", "regions"])
def test_report_and_regions_load_no_measurement_stack(tmp_path, command):
    from carbonledger import ledger

    path = tmp_path / "ledger.jsonl"
    ledger.append_record(path, make_record("guard"))
    name, *fmt = command.split()
    args = ["--ledger", str(path), "--format", *fmt] if fmt else []
    output, loaded = _fresh("import sys\nfrom carbonledger import cli\nassert cli.main(sys.argv[1:]) == 0", name, *args)
    assert ("guard" if fmt else "DE 380") in output
    assert sorted(RUN_ONLY & loaded) == []


def test_importing_the_package_loads_no_submodule():
    _, loaded = _fresh("import carbonledger")
    assert sorted(name for name in loaded if name.startswith("carbonledger.")) == []


def test_the_workload_loads_neither_sampler_probe_nor_subprocess():
    _, loaded = _fresh("import carbonledger.workload")
    assert sorted(loaded & {"carbonledger.sampler", "carbonledger.probe", "carbonledger.energy", "subprocess"}) == []


def test_the_event_variable_is_named_once_and_shared():
    defined = [
        path.name
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Constant) and node.value == "CARBONLEDGER_EVENTS"
    ]
    assert defined == ["__init__.py"]
    from carbonledger import workload

    assert cli.EVENTS_ENV is workload.EVENTS_ENV is carbonledger.EVENTS_ENV == "CARBONLEDGER_EVENTS"


def test_dir_lists_every_exported_name_before_any_is_used():
    output, loaded = _fresh("import carbonledger\nprint(*dir(carbonledger))")
    assert set(carbonledger.__all__) <= set(output.split())
    assert "carbonledger.sampler" not in loaded


def test_star_import_binds_every_exported_name():
    code = "from carbonledger import *\nimport carbonledger\nprint(*[n for n in carbonledger.__all__ if n not in globals()])"
    output, _ = _fresh(code)
    assert output == ""


def test_an_unknown_attribute_is_an_attribute_error_naming_it():
    code = "import carbonledger\ntry:\n    carbonledger.no_such_name\nexcept AttributeError as exc:\n    print(exc)"
    output, _ = _fresh(code)
    assert output == "module 'carbonledger' has no attribute 'no_such_name'"
    assert not hasattr(carbonledger, "no_such_name")


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


READERS = {
    "trace": (probe.parse_trace, TraceParseError, b"0,1\n", b"1000,caf\xe9\n"),
    "registry": (carbon.load_intensity_registry, RegistryParseError, b"FR,60,a,2024-01-01\n", b"DE,3,\xe9,2022-01-01\n"),
    "config": (cli.load_config_file, ConfigParseError, b"label = x\n", b"region = caf\xe9\n"),
    "triples": (kgverb.load_triples, MalformedRow, b"a\tIsA\tb\t1\n", b"caf\xe9\tIsA\tb\t2\n"),
    "templates": (kgverb.load_templates, MalformedRow, b"IsA\t{s} is {o}\n", b"PartOf\t{s} \xff {o}\n"),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_line_file_reader_names_bytes_that_are_not_utf8(tmp_path, reader):
    read, error, good, bad = READERS[reader]
    path = tmp_path / f"{reader}.txt"
    path.write_bytes(good + b"# comment\n\n" + bad + good)
    with pytest.raises(error) as err:
        read(path)
    assert type(err.value) is error
    assert (err.value.path, err.value.line_no, err.value.reason) == (str(path), 4, "not UTF-8")
    assert str(err.value) == f"{path}:4: not UTF-8"
    with pytest.raises(error):
        error.lines(path)  # at the call, before a line is read
    path.write_bytes(good + b"# caf\xe9\n" + good)
    with pytest.raises(error) as err:
        read(path)  # a comment is decoded too
    assert err.value.line_no == 2


def _calls(tree: ast.AST, scope: str = ""):
    """(enclosing class/function path, call node) for every call in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Call):
            yield scope, node
        yield from _calls(node, inner)


def _decodes_or_reads_text(call: ast.Call) -> bool:
    """True for ``x.decode("utf-8")``/``x.decode()`` and for an ``open``
    (builtin or method) whose mode reads text."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "decode":
        codec = call.args[0].value if call.args and isinstance(call.args[0], ast.Constant) else "utf-8"
        return str(codec).lower().replace("_", "-") in ("utf-8", "utf8")
    if name != "open" or (isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os"):
        return False
    mode_at = 1 if isinstance(func, ast.Name) else 0  # open(path, mode) or path.open(mode)
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[mode_at : mode_at + 1]
    mode = modes[0].value if modes and isinstance(modes[0], ast.Constant) else "r"
    return "b" not in mode and ("r" in mode or "+" in mode)


def test_only_the_line_reader_event_tail_and_ledger_scan_decode_text():
    """A line file is decoded in one place, ``FileLineError.lines``. The event
    tail and ``scan_ledger`` decode line by line on purpose: a bad line there
    is counted or reported, not fatal."""
    allowed = ("errors.py:", "sampler.py:_EventTail.", "ledger.py:scan_ledger")
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for scope, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{path.name}:{scope}"
            if _decodes_or_reads_text(call) and not where.startswith(allowed):
                found.append(f"{where} line {call.lineno}")
    assert found == []
