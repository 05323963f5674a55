"""The package names the benchmark harness uses, the README's CLI examples and
API names, the declared runtime dependencies, the contract of the package's
records, and the one parser ``cli.main`` builds per process.

The harness files are read as source, not imported: importing the worker
pins thread pools and loads the tracer.
"""

import ast
import builtins
import dataclasses
import importlib
import json
import os
import pickle
import pkgutil
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import lvwaves
from lvwaves import rational
from lvwaves.cli import build_parser, main
from lvwaves.profiles import uniform_grid
from lvwaves.report import CheckItem, CheckReport

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
        # the tracer names a span after the module that defines the function,
        # or the class that owns the method; a re-exported name would read 0
        module, *attrs = name.split(".")
        if len(attrs) == 1:
            assert _resolve(name).__module__ == f"lvwaves.{module}", name
        else:
            owner = _resolve(".".join([module, *attrs[:-1]]))
            assert owner.__module__ == f"lvwaves.{module}", name
            assert attrs[-1] in vars(owner), name


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


def _readme_free_json() -> str:
    """The README's one JSON block, its example ``free.json``."""
    text = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"^```json\n(.*?)^```", text, flags=re.M | re.S)
    return block


def test_readme_examples_parse():
    commands = _readme_commands()
    assert commands
    parser = build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        assert callable(args.handler), line


def _readme_inputs(folder: Path, paper_spec, demo_two_wave) -> None:
    """The files the README's CLI examples read, written into ``folder``."""
    two = {"d1": 1, "d2": 1, "sigma1": 1, "sigma2": 1, "c11": 1, "c12": 2, "c21": 3, "c22": 1}
    files = {
        "two_species.json": two,
        "three_species.json": {k: str(v) for k, v in paper_spec.params.to_dict().items()},
        "existence.json": {**two, "d3": 1, "sigma3": 1, "c31": 1, "c32": 1, "c33": 1,
                           "theta": 1, "K_sub": 1, "K_super": 2},
        "fisher.json": {"d3": 2, "theta": 6, "sigma3": 10, "c31": 0.5, "c32": 0.01, "c33": 1,
                        "K_sub": 1, "K_super": 12},
    }
    folder.mkdir()
    (folder / "free.json").write_text(_readme_free_json())
    for name, data in files.items():
        (folder / name).write_text(json.dumps(data))
    lvwaves.wave_profile(paper_spec, uniform_grid(-20.0, 20.0, 401)).to_csv(
        folder / "wave.csv"
    )
    lvwaves.wave_profile(demo_two_wave, uniform_grid(-40.0, 40.0, 801)).to_csv(
        folder / "background.csv"
    )


def test_readme_examples_write_the_same_bytes_in_one_process_and_in_fresh_ones(
    tmp_path, monkeypatch, paper_spec, demo_two_wave
):
    """The README's CLI examples run twice through one process's ``main``,
    which parses with one parser, and once as a ``python -m lvwaves`` process
    each; every run leaves the same exit codes and the same files."""
    commands = [shlex.split(line, comments=True)[1:] for line in _readme_commands()]
    # a command without --out writes ./lvwaves-out, where the next one would overwrite it
    commands = [
        argv if "--out" in argv else [*argv, "--out", f"out-{i}"]
        for i, argv in enumerate(commands)
    ]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = {}
    for name in ("first", "second", "fresh"):
        folder = tmp_path / name
        _readme_inputs(folder, paper_spec, demo_two_wave)
        monkeypatch.chdir(folder)
        if name == "fresh":
            codes = [
                subprocess.run([sys.executable, "-m", "lvwaves", *argv], env=env,
                               capture_output=True).returncode
                for argv in commands
            ]
        else:
            codes = [main(argv) for argv in commands]
        files = {
            str(path.relative_to(folder)): path.read_bytes()
            for path in sorted(folder.rglob("*")) if path.is_file()
        }
        runs[name] = codes, files
    codes, files = runs["first"]
    assert set(codes) <= {0, 1}, codes
    reports = [name for name in files if name.endswith("report.json")]
    assert len(reports) == len(commands)
    for name in ("second", "fresh"):
        assert runs[name][0] == codes, name
        assert runs[name][1].keys() == files.keys(), name
        for path, data in files.items():
            assert runs[name][1][path] == data, (name, path)


def test_main_builds_its_parser_on_the_first_call_only(tmp_path):
    # a fresh interpreter, since this one's main has already built its parser
    script = """
import argparse, sys
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting

def count(step):
    before = len(built)
    step()
    return len(built) - before

at_import = count(lambda: __import__("lvwaves.cli"))  # imports lvwaves first
import lvwaves.cli
argv = ["evenness", "--u", "1", "--v", "3", "--out", sys.argv[1]]
first, second = (count(lambda: lvwaves.cli.main(argv)) for _ in range(2))
print(at_import, first, second, count(lvwaves.cli.build_parser))
"""
    run = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr
    at_import, first, second, one_parser = map(int, run.stdout.split())
    # a parser is the top-level parser and one subparser per command
    assert one_parser > 1
    assert (at_import, first, second) == (0, one_parser, 0)


def test_readme_free_json_example_runs(tmp_path):
    # the README says all coefficients of this example come out rational
    params = tmp_path / "free.json"
    params.write_text(_readme_free_json())
    out = tmp_path / "out"
    assert main(["exact-wave", "--params", str(params), "--out", str(out)]) == 0
    assert "c_exact" in json.loads((out / "report.json").read_text())


def test_readme_api_names_resolve():
    # every backticked call `name(` the README shows, bar one-letter
    # shorthands such as `F(u, v)` and builtins, is an attribute of lvwaves
    text = (ROOT / "README.md").read_text()
    names = {name for name in re.findall(r"`(\w+)\(", text) if len(name) > 1}
    names -= set(dir(builtins))
    assert names
    for name in sorted(names):
        assert hasattr(lvwaves, name), name


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


def _names_used(path: Path) -> set[str]:
    """Every name, attribute and imported name the module at ``path`` mentions."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_number_refusals_go_through_the_rules_in_rational():
    # a module that tests _is_finite itself writes a refusal of its own; the
    # rules (_require_positive, _require_nonnegative, _require_finite) are the one home
    users = [
        path.name for path in sorted((ROOT / "src" / "lvwaves").rglob("*.py"))
        if path.name != "rational.py" and "_is_finite" in _names_used(path)
    ]
    assert users == []


def _where_written(text: str) -> set[str]:
    """``module.function`` for each line of ``src/`` that holds ``text``, after
    ``ast.unparse`` has joined adjacent string pieces; ``function`` is the
    innermost function around the line, ``<module>`` outside any."""
    places = set()
    for path in sorted((ROOT / "src" / "lvwaves").rglob("*.py")):
        source = ast.unparse(ast.parse(path.read_text()))
        owner = {}
        # ast.walk reaches a function before the functions nested in it
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.name))
        places |= {
            f"{path.stem}.{owner.get(number, '<module>')}"
            for number, line in enumerate(source.splitlines(), start=1) if text in line
        }
    return places


@pytest.mark.parametrize(
    "text, home",
    [
        ("is above the admissible limit", "numerics._require_below_blowup"),
        ("np.iinfo(np.intp)", "numerics._step_ratio"),
    ],
    ids=["blowup-limit", "step-count"],
)
def test_each_numerics_limit_is_written_in_one_function(text, home):
    # a second copy of a limit's refusal drifts from the first in wording or test
    assert _where_written(text) == {home}


def _example(cls) -> object:
    """An exact instance of a parameter record a parameter file is read into."""
    free = lvwaves.FreeParams(*map(Fraction, (1, 1, 1, 1, 1, 3, 41, 41, 41)))
    three = lvwaves.induce_coefficients(free).params
    return {
        lvwaves.FreeParams: free,
        lvwaves.ThreeSpeciesParams: three,
        lvwaves.TwoSpeciesParams: three.two_species_block(),
        lvwaves.ExistenceInputs: lvwaves.ExistenceInputs(
            three.two_species_block(), three.d3, three.sigma3, three.c31, three.c32,
            three.c33, free.theta, Fraction(1, 3), Fraction(5, 2),
        ),
    }[cls]


def _flat(record) -> dict:
    """A record's parameter-file mapping: its fields in order, with a nested
    block's fields in its place."""
    values = {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}
    block = values.pop("two_species", None)
    return values if block is None else {**block.to_dict(), **values}


_PARAMETER_RECORDS = (
    lvwaves.TwoSpeciesParams, lvwaves.ThreeSpeciesParams, lvwaves.FreeParams,
    lvwaves.ExistenceInputs,
)


@pytest.mark.parametrize("cls", _PARAMETER_RECORDS, ids=lambda cls: cls.__name__)
def test_an_empty_parameter_file_is_refused_naming_every_field_in_order(cls):
    names = [f.name for f in dataclasses.fields(cls) if f.name != "two_species"]
    if cls is lvwaves.ExistenceInputs:
        names = [f.name for f in dataclasses.fields(lvwaves.TwoSpeciesParams)] + names
    assert list(_flat(_example(cls))) == names
    with pytest.raises(ValueError) as refusal:
        cls.from_dict({})
    assert str(refusal.value) == "missing keys " + ", ".join(map(repr, names))


@pytest.mark.parametrize("cls", _PARAMETER_RECORDS, ids=lambda cls: cls.__name__)
def test_from_dict_of_the_written_fields_round_trips(cls):
    record = _example(cls)
    exact = cls.from_dict({k: str(v) for k, v in _flat(record).items()})
    assert exact == record
    assert all(type(v) is Fraction for v in _flat(exact).values())
    floats = cls.from_dict({k: str(float(v)) for k, v in _flat(record).items()})
    assert _flat(floats) == {k: float(v) for k, v in _flat(record).items()}


@pytest.mark.parametrize("cls", _PARAMETER_RECORDS[:3], ids=lambda cls: cls.__name__)
def test_flat_records_read_and_write_through_the_rules_in_rational(cls):
    # a from_dict or to_dict of a record's own restates its field list
    assert cls.from_dict.__func__ is rational._from_dict
    assert getattr(cls, "to_dict", rational._to_dict) is rational._to_dict


def _is_name_tuple(node: ast.AST) -> bool:
    return isinstance(node, ast.Tuple) and bool(node.elts) and all(
        isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts
    )


def test_no_module_writes_out_a_field_list():
    # a tuple of field names beside a dataclass or signature drifts from it:
    # neither a *_FIELDS constant nor a literal handed to parse_fields
    written = []
    for path in sorted((ROOT / "src" / "lvwaves").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Assign) and _is_name_tuple(node.value):
                written += [
                    f"{path.name}: {target.id}" for target in node.targets
                    if isinstance(target, ast.Name) and target.id.endswith("_FIELDS")
                ]
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "parse_fields"
                    and any(map(_is_name_tuple, [*node.args, *(k.value for k in node.keywords)]))):
                written.append(f"{path.name}:{node.lineno}: parse_fields")
    assert written == []


def _package_dataclasses() -> list[type]:
    """Every dataclass defined in a module of ``lvwaves`` (``__main__`` runs
    the CLI on import, and defines none)."""
    found = []
    for info in pkgutil.iter_modules(lvwaves.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"lvwaves.{info.name}")
        found += [
            obj for obj in vars(module).values()
            if isinstance(obj, type) and dataclasses.is_dataclass(obj)
            and obj.__module__ == module.__name__
        ]
    return found


def test_every_dataclass_is_frozen():
    classes = _package_dataclasses()
    assert CheckItem in classes and CheckReport in classes
    for cls in classes:
        assert cls.__dataclass_params__.frozen, cls.__qualname__


def _records() -> tuple[CheckItem, CheckReport]:
    item = CheckItem("H1", False, -0.25, {"q_lower": 0.5, "q_upper": 4.0})
    return item, CheckReport("existence-audit", False, (item, CheckItem("H4", True, 1.0)), "v")


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_refuse_assignment(record):
    for f in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, f.name)


def test_records_replace_asdict_and_pickle_unchanged():
    item, report = _records()
    assert [(f.name, f.default) for f in dataclasses.fields(CheckReport)] == [
        ("title", dataclasses.MISSING), ("passed", dataclasses.MISSING),
        ("items", dataclasses.MISSING), ("verdict", ""),
    ]
    (details,) = [f for f in dataclasses.fields(CheckItem) if f.name == "details"]
    assert details.default_factory is dict
    for record in (item, report):
        again = dataclasses.replace(record)
        assert again == record and again is not record
        assert repr(again) == repr(record)
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is type(record)
        assert vars(back) == vars(record)
    item_dict = {"name": "H1", "passed": False, "margin": -0.25,
                 "details": {"q_lower": 0.5, "q_upper": 4.0}}
    assert dataclasses.asdict(item) == item_dict
    assert dataclasses.asdict(report) == {
        "title": "existence-audit", "passed": False, "verdict": "v",
        "items": (item_dict, {"name": "H4", "passed": True, "margin": 1.0, "details": {}}),
    }
    assert dataclasses.replace(item, margin=1.5).margin == 1.5
    assert dataclasses.replace(report, verdict="w") == CheckReport(
        "existence-audit", False, report.items, "w"
    )
    assert repr(item) == (
        "CheckItem(name='H1', passed=False, margin=-0.25, "
        "details={'q_lower': 0.5, 'q_upper': 4.0})"
    )


def test_items_without_details_do_not_share_a_dict():
    first, second = CheckItem("a", True, 0.0), CheckItem("b", True, 0.0)
    assert first.details == {} and second.details == {}
    assert first.details is not second.details
    assert CheckItem("c", True, 0.0, details=None).details is None
    assert CheckReport("t", True, ()).verdict == ""


def test_falsified_property_does_not_end_the_session(pytester, monkeypatch):
    """A falsified hypothesis property is one failed test, and the tests after
    it still run, under this repository's own pytest settings and conftest."""
    pytester.makepyprojecttoml((ROOT / "pyproject.toml").read_text())
    pytester.makeconftest((ROOT / "tests" / "conftest.py").read_text())
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_falsified(n):
            assert n != 0

        def test_after():
            pass
        """
    )
    # a subprocess, so the hypothesis modules a failure imports are not loaded yet
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=1, passed=1)
