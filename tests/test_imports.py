"""The CLI path imports no module of the package after `import mcert.cli`,
never scipy or numpy.ma, every module imports with scipy blocked, the Schur layer loads
no package module but `errors`, one process can run `main` many times, no record is
given its verdict, the CLI front end imports no numpy, and every defaulted parameter of the
public API is set, and every exported name loaded, by the package, an acceptance line, a command
row or the benchmark, and the package fits a slope, checks a shape, checks an interval and
spells a bracket in one place each."""

import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

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


BLAS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("name", BLAS)
def test_import_puts_blas_on_one_thread_before_numpy_unless_set(name):
    # import mcert loads no numpy, so the count it sets is the one BLAS starts with
    script = ("import json, os, sys\nimport mcert\n"
              "print(json.dumps([os.environ.get(sys.argv[1]), 'numpy' in sys.modules]))\n")
    env = {k: v for k, v in os.environ.items() if k not in BLAS}
    env["PYTHONPATH"] = str(Path(mcert.__file__).resolve().parents[1])
    for value, expected in ((None, "1"), ("3", "3")):
        run_env = env if value is None else {**env, name: value}
        proc = subprocess.run([sys.executable, "-c", script, name], env=run_env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [expected, False]


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


def test_no_module_calls_polyfit():
    # every fitted exponent and growth rate is geometry._slope; the acceptance test keeps
    # np.polyfit as its independent oracle
    package = Path(mcert.__file__).resolve().parent
    calls = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and "polyfit" in (getattr(node.func, "id", None),
                                                             getattr(node.func, "attr", None))]
    assert calls == []


def raises_input_error(stmt, classes=("InputError",)):
    return any(isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
               and getattr(node.exc.func, "id", None) in classes for node in ast.walk(stmt))


def test_no_module_checks_a_shape_by_hand():
    # every array's shape is decided by the ``shape`` of errors.check_array
    package = Path(mcert.__file__).resolve().parent
    checks = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
              if path.name != "errors.py"
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.If) and any(raises_input_error(s) for s in node.body)
              and any(isinstance(a, ast.Attribute) and a.attr in ("ndim", "shape")
                      for a in ast.walk(node.test))]
    assert checks == []


def is_check_array(node):
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check_array"


def mentions_a_checked_value(node, checked):
    """Whether ``node`` reads a name in ``checked`` or calls check_array, outside a len()."""
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "len":
        return False
    if is_check_array(node) or isinstance(node, ast.Name) and node.id in checked:
        return True
    return any(mentions_a_checked_value(child, checked) for child in ast.iter_child_nodes(node))


def interval_checks_by_hand(tree):
    """The line of each ``if`` that raises a DomainError or InputError and orders, by <, <=, >
    or >=, a value its function took through check_array."""
    lines = []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        checked = {target.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                   and any(is_check_array(n) for n in ast.walk(node.value))
                   for target in node.targets if isinstance(target, ast.Name)}
        lines += [node.lineno for node in ast.walk(fn) if isinstance(node, ast.If)
                  and any(raises_input_error(s, ("DomainError", "InputError")) for s in node.body)
                  and any(isinstance(cmp, ast.Compare)
                          and any(isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE))
                                  for op in cmp.ops)
                          and any(mentions_a_checked_value(side, checked)
                                  for side in (cmp.left, *cmp.comparators))
                          for cmp in ast.walk(node.test))]
    return sorted(set(lines))


def test_no_module_checks_an_interval_by_hand():
    # every interval a real input must lie in is given to errors.check_array as its bounds
    package = Path(mcert.__file__).resolve().parent
    checks = [f"{path.name}:{line}" for path in sorted(package.glob("*.py"))
              if path.name != "errors.py"
              for line in interval_checks_by_hand(ast.parse(path.read_text(encoding="utf-8")))]
    assert checks == []


def test_the_interval_guard_passes_a_length_and_fails_a_bound():
    length = ("def f(z, k):\n    z = check_array('z', z)\n    if len(z) < k:\n"
              "        raise InputError('short')\n")
    bound = ("def f(p):\n    p = float(check_array('p', p))\n    if not p >= 1.0:\n"
             "        raise DomainError('p')\n")
    inline = "def f(h):\n    if not check_array('h', h) > 0:\n        raise InputError('h')\n"
    assert interval_checks_by_hand(ast.parse(length)) == []
    assert interval_checks_by_hand(ast.parse(bound)) == [3]
    assert interval_checks_by_hand(ast.parse(inline)) == [2]


BRACKET_NAMES = {"lower", "upper", "allowance", "relative_gap", "lower_bounds", "upper_bounds"}


def bracket_spellings(module, tree):
    """The line of each bracket spelled outside ``schur.Bracket``: a field, property or
    ``self`` attribute of another class named in BRACKET_NAMES, and a "lower_bound" or
    "upper_bound" constant outside ``Bracket.fields``."""
    lines, inside_fields = [], set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if module == "schur" and cls.name == "Bracket":
            inside_fields |= {id(node) for item in cls.body if getattr(item, "name", None)
                              == "fields" for node in ast.walk(item)}
            continue
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and item.name in BRACKET_NAMES and any(
                    getattr(d, "id", None) in ("property", "cached_property")
                    for d in item.decorator_list):
                lines.append(item.lineno)
            targets = [item.target] if isinstance(item, ast.AnnAssign) else getattr(
                item, "targets", [])
            lines += [item.lineno for t in targets if getattr(t, "id", None) in BRACKET_NAMES]
        lines += [node.lineno for node in ast.walk(cls) if isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Store) and node.attr in BRACKET_NAMES
                  and getattr(node.value, "id", None) == "self"]
    lines += [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
              and node.value in ("lower_bound", "upper_bound") and id(node) not in inside_fields]
    return sorted(set(lines))


def test_one_bracket_holds_and_writes_every_lower_and_upper_end():
    # schur.Bracket is the one type with the two ends, and Bracket.fields the one writer
    # of their report keys
    package = Path(mcert.__file__).resolve().parent
    spelled = [f"{path.name}:{line}" for path in sorted(package.glob("*.py")) for line in
               bracket_spellings(path.stem, ast.parse(path.read_text(encoding="utf-8")))]
    assert spelled == []


def test_the_bracket_guard_passes_bracket_and_fails_another_spelling():
    bracket = ("class Bracket:\n    lower: float\n    upper: float\n"
               "    def fields(self):\n        return {'lower_bound': self.lower}\n")
    other = ("class Result:\n    value: float\n    upper: float\n"
             "    @property\n    def relative_gap(self):\n        return 0.0\n"
             "    def __init__(self):\n        self.lower = 0.0\n"
             "row = {'upper_bound': 1.0}\n")
    assert bracket_spellings("schur", ast.parse(bracket)) == []
    assert bracket_spellings("rigidity", ast.parse(bracket)) == [2, 3, 5]
    assert bracket_spellings("schur", ast.parse(other)) == [3, 5, 8, 9]


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


def caller_paths():
    """The package's modules, then the acceptance tests, the command rows and the benchmark:
    the code a pipeline, an acceptance criterion or a benchmark job runs."""
    root = Path(mcert.__file__).resolve().parents[2]
    package = root / "src" / "mcert"
    return [*sorted(package.glob("*.py")), root / "tests" / "test_acceptance.py",
            root / "tests" / "commands.py", *sorted((root / "perfbench").rglob("*.py"))]


def test_every_defaulted_parameter_has_a_caller():
    # a default that no pipeline, acceptance line, command row or benchmark job sets is a
    # knob only a unit test turns: it goes, and its value becomes the code's
    package = Path(mcert.__file__).resolve().parent
    calls = {}
    for path in caller_paths():
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


def exported_definitions(tree):
    """(qualified name, name, definition) for each name in ``__all__`` and each public method
    of a class in it; the definition is its def, class or assignment, or None."""
    exported = [elt.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                for elt in node.value.elts]
    definitions = {}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for name in [getattr(node, "name", None), *(getattr(t, "id", None) for t in targets)]:
            definitions.setdefault(name, node)
    for name in exported:
        node = definitions.get(name)
        yield name, name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{name}.{item.name}", item.name, item) for item in node.body
                        if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def unloaded_exports(modules, others=()):
    """The qualified names of :func:`exported_definitions` of each module in ``modules``, a
    dict of parsed modules by name, that no ast.Name or ast.Attribute in load context reads,
    in those modules or in ``others``, outside the name's own definition: an import alias or
    the string in ``__all__`` is no load."""
    loads = {}
    for tree in [*modules.values(), *others]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loads.setdefault(getattr(node, "id", None) or node.attr, []).append(id(node))
    unloaded = []
    for module, tree in modules.items():
        for qualified, name, definition in exported_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)} if definition else set()
            if all(node in inside for node in loads.get(name, [])):
                unloaded.append(f"{module}.{qualified}")
    return unloaded


def test_every_exported_name_is_loaded():
    # a name no pipeline, acceptance line, command row or benchmark job reads is code no user
    # reaches: it goes, with the tests that exist only for it
    package = Path(mcert.__file__).resolve().parent
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in caller_paths()}
    modules = {path.stem: tree for path, tree in trees.items() if path.parent == package}
    others = [tree for path, tree in trees.items() if path.parent != package]
    assert unloaded_exports(modules, others) == []


def test_the_export_guard_passes_a_load_and_fails_an_import_or_a_self_call():
    module = ("__all__ = ['used', 'imported', 'recursive', 'Frame', 'LIMIT']\n"
              "LIMIT = 3\n"
              "def used():\n    return LIMIT\n"
              "def imported():\n    pass\n"
              "def recursive(k):\n    return recursive(k - 1)\n"
              "class Frame:\n    def create(self):\n        return used()\n"
              "    def width(self):\n        return self.width\n"
              "    def _hidden(self):\n        pass\n")
    caller = "from m import imported, Frame\nFrame().create()\n"
    assert unloaded_exports({"m": ast.parse(module)}) == [
        "m.imported", "m.recursive", "m.Frame", "m.Frame.create", "m.Frame.width"]
    assert unloaded_exports({"m": ast.parse(module)}, [ast.parse(caller)]) == [
        "m.imported", "m.recursive", "m.Frame.width"]
