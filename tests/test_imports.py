"""The CLI path imports no module of the package after `import mcert.cli`,
never scipy or numpy.ma, every module imports with scipy blocked, the Schur layer loads
no package module but `errors`, one process can run `main` many times, no record is
given its verdict, the CLI front end imports no numpy, and every defaulted parameter of the
public API is set by the package, an acceptance line, a command row or the benchmark."""

import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import mcert
from mcert.cli import main

from commands import README_ROWS, write_fixtures

GUARD = """
import json, sys
import mcert.cli
before = set(sys.modules)
codes = [mcert.cli.main(argv) for argv in json.loads(sys.argv[1])]
loaded = sorted(m for m in set(sys.modules) - before if m.split(".")[0] == "mcert")
print(json.dumps({"codes": codes, "loaded": loaded, "numpy.ma": "numpy.ma" in sys.modules,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""

NO_SCIPY = """
import importlib, json, pkgutil, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
import mcert
names = [info.name for info in pkgutil.iter_modules(mcert.__path__)]
for name in names:
    importlib.import_module(f"mcert.{name}")
try:
    import scipy
    blocked = False
except ImportError:
    blocked = True
print(json.dumps({"imported": names, "blocked": blocked}))
"""

LOADED = """
import importlib, json, sys
module = importlib.import_module(sys.argv[1])
print(json.dumps({"loaded": sorted(m for m in sys.modules if m.split(".")[0] == "mcert"),
                  "all": sorted(module.__all__)}))
"""


def fresh_import(name):
    """The package modules that `import name` loads in a fresh interpreter, and its __all__."""
    env = dict(os.environ, PYTHONPATH=str(Path(mcert.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", LOADED, name], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_readme_commands_import_no_package_module_and_no_scipy(tmp_path):
    write_fixtures(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(mcert.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", GUARD,
                           json.dumps([row.argv for row in README_ROWS])],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["codes"] == [row.code for row in README_ROWS]
    assert got["loaded"] == []
    assert got["scipy"] == []
    assert not got["numpy.ma"]  # about 12 ms of a cold start, for np.median and np.unique


def test_every_module_imports_with_scipy_blocked():
    env = dict(os.environ, PYTHONPATH=str(Path(mcert.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["blocked"]
    modules = sorted(info.name for info in pkgutil.iter_modules(mcert.__path__))
    assert sorted(got["imported"]) == modules
    assert {"cli", "composition", "euclidean", "geometry", "schur", "sphere",
            "symbols"} <= set(got["imported"])


def test_schur_layer_loads_only_errors():
    got = fresh_import("mcert.schur")
    assert got["loaded"] == ["mcert", "mcert.errors", "mcert.schur"]


def test_rigidity_imports_on_its_own():
    got = fresh_import("mcert.rigidity")
    assert {"mcert.rigidity", "mcert.schur"} <= set(got["loaded"])
    assert got["all"] == sorted(["CONSISTENT", "VIOLATED", "WitnessResult",
                                 "profile_rigidity_records", "rigidity_witness"])


def test_repeated_main_calls_share_no_state(tmp_path):
    def body(path):
        rep = json.loads(path.read_text(encoding="utf-8"))
        rep.pop("header")
        return json.dumps(rep, sort_keys=True)

    run_a = lambda tag: main(["sphere-spectrum", "--n", "3", "--kmax", "8",
                              "--out", str(tmp_path / f"{tag}.json")])
    # both spectra hold a diverged Schatten sum, INCONCLUSIVE
    assert run_a("a1") == 1
    assert main(["sphere-spectrum", "--n", "5", "--x", "0.3", "0.7", "--r", "1", "--p", "6",
                 "--kmax", "12", "--seed", "3", "--out", str(tmp_path / "b.json"),
                 "--format", "csv"]) == 1
    assert run_a("a2") == 1
    assert body(tmp_path / "a1.json") == body(tmp_path / "a2.json")
    rows = json.loads((tmp_path / "a2.json").read_text(encoding="utf-8"))["tables"]["spectrum"]
    assert [k for k in rows[0] if k.startswith("phi")] == ["phi(x=0.5)"]  # the --x default
    assert not list(tmp_path.glob("a2_*.csv"))  # and the --format default


def test_records_take_no_verdict_and_cli_imports_no_numpy():
    # every verdict is derived by mcert.report from the record's own fields
    package = Path(mcert.__file__).resolve().parent
    records = 0
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "CheckRecord" in (getattr(node.func, "id", None),
                                                                getattr(node.func, "attr", None)):
                records += 1
                assert "verdict" not in {kw.arg for kw in node.keywords}, (path.name, node.lineno)
    assert records >= 10
    tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names}
    names |= {node.module for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert "numpy" not in {name.split(".")[0] for name in names}, names


def defaulted_parameters(tree):
    """(name, index, parameter) per defaulted parameter of each function in ``__all__`` and each
    public method of a class in it; index counts the positional parameters after self or cls,
    and is None for a keyword-only one."""
    exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for elt in node.value.elts}
    functions = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in exported:
            functions.append((node, 0))
        elif isinstance(node, ast.ClassDef) and node.name in exported:
            functions += [(item, 1) for item in node.body if isinstance(item, ast.FunctionDef)
                          and not item.name.startswith("_")
                          and "staticmethod" not in {getattr(d, "id", None)
                                                     for d in item.decorator_list}]
    for fn, bound in functions:
        args = fn.args.posonlyargs + fn.args.args
        first = len(args) - len(fn.args.defaults)
        for i, arg in enumerate(args[first:], first):
            yield fn.name, i - bound, arg.arg
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield fn.name, None, arg.arg


def test_every_defaulted_parameter_has_a_caller():
    # a default that no pipeline, acceptance line, command row or benchmark job sets is a
    # knob only a unit test turns: it goes, and its value becomes the code's
    root = Path(mcert.__file__).resolve().parents[2]
    package = root / "src" / "mcert"
    callers = [*package.glob("*.py"), root / "tests" / "test_acceptance.py",
               root / "tests" / "commands.py", *(root / "perfbench").rglob("*.py")]
    calls = {}
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)

    def passed(call, index, parameter):
        if any(kw.arg in (parameter, None) for kw in call.keywords):  # None: **kwargs
            return True
        positional = call.args
        return index is not None and (len(positional) > index or any(
            isinstance(a, ast.Starred) for a in positional))

    unset = [f"{path.stem}.{name}({parameter})" for path in sorted(package.glob("*.py"))
             for name, index, parameter in defaulted_parameters(
                 ast.parse(path.read_text(encoding="utf-8")))
             if not any(passed(call, index, parameter) for call in calls.get(name, []))]
    assert unset == []
