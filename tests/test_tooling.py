"""The package names the benchmark harness uses, the README's CLI examples, and
the declared runtime dependencies.

The harness files are read as source, not imported: importing the worker
pins thread pools and loads the tracer.
"""

import ast
import importlib
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

import lvwaves
from lvwaves.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]


def _resolve(dotted: str) -> object:
    """``module.attr[.attr...]`` under ``lvwaves``; raises if any part is missing."""
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"lvwaves.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def _module_assignments(path: Path) -> dict[str, ast.expr]:
    tree = ast.parse(path.read_text())
    return {
        target.id: node.value
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }


def test_worker_span_names_resolve():
    assigned = _module_assignments(ROOT / "perfbench" / "worker.py")
    timed = ast.literal_eval(assigned["SELF_TIMED"])
    hooked = [ast.literal_eval(key) for key in assigned["HOOKS"].keys]
    names = set(timed) | set(hooked)
    assert names
    for name in sorted(names):
        assert callable(_resolve(name)), name


def test_workload_imports_and_lv_attributes_resolve():
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    attrs = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "lv"
    }
    imported = {
        (node.module, alias.name) for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "lvwaves"
        for alias in node.names
    }
    assert attrs and imported
    for attr in sorted(attrs):
        assert hasattr(lvwaves, attr), attr
    for module, name in sorted(imported):
        owner = importlib.import_module(module)
        # ``from lvwaves import cli`` names a submodule
        assert hasattr(owner, name) or importlib.import_module(f"{module}.{name}"), name


def _readme_commands() -> list[str]:
    text = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("lvwaves ")]


def test_readme_examples_parse():
    commands = _readme_commands()
    assert commands
    parser = build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert callable(args.handler), line


def test_readme_free_json_example_runs(tmp_path):
    # the README says all coefficients of this example come out rational
    text = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```json\n(.*?)^```", text, flags=re.M | re.S)
    params = tmp_path / "free.json"
    params.write_text(block)
    out = tmp_path / "out"
    assert main(["exact-wave", "--params", str(params), "--out", str(out)]) == 0
    assert "c_exact" in json.loads((out / "report.json").read_text())


def _third_party_imports() -> set[str]:
    """Top-level names of the modules ``src/lvwaves`` imports from outside
    the package and the standard library."""
    names = set()
    for path in (ROOT / "src" / "lvwaves").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"lvwaves"}


def test_runtime_dependencies_are_the_imports():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.split(r"[\s<>=!~;\[]", requirement, maxsplit=1)[0].lower().replace("-", "_")
        for requirement in project["dependencies"]
    }
    assert _third_party_imports() == declared
