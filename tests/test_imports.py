"""The CLI path imports no module of the package after `import mcert.cli`,
never scipy or numpy.ma, every module imports with scipy blocked, the Schur layer loads
no package module but `errors`, one process can run `main` many times, no record is
given its verdict, and the CLI front end imports no numpy."""

import ast
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import mcert
from mcert.cli import main

from matrix_csv import write_matrix_csv

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


def readme_commands(tmp_path):
    """The six README CLI commands, writing into tmp_path, on a small CSV matrix, and
    `schur-bound` at p = 2 and infinity, so that every first optimizer half-step runs."""
    points = tmp_path / "matrix.csv"
    write_matrix_csv(np.arange(16.0).reshape(4, 4) / 16.0, points)
    out = lambda name: str(tmp_path / name)
    return [
        ["certify-hm", "--symbol", "radial-power:exponent=5", "--n", "3",
         "--out", out("report.json")],
        ["rigidity", "--profile", "radial-power:exponent=5", "--n", "3", "--p", "10",
         "--out", out("r3.json")],
        ["rigidity", "--profile", "radial-power:exponent=5", "--n", "16", "--p", "100",
         "--out", out("r16.json")],
        ["sphere-spectrum", "--n", "3", "--p", "4", "--x", "0.5", "--kmax", "50",
         "--out", out("spec.json"), "--format", "csv"],
        ["schur-bound", "--points", str(points), "--p", "4", "--out", out("bound.json")],
        ["schur-bound", "--points", str(points), "--p", "2", "--out", out("bound2.json")],
        ["schur-bound", "--points", str(points), "--p", "inf", "--out", out("bound-inf.json")],
        ["geometry", "--n", "2", "--R", *map(str, range(2, 11)), "--out", out("geo.json")],
    ]


def test_readme_commands_import_no_package_module_and_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(mcert.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", GUARD, json.dumps(readme_commands(tmp_path))],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    assert got["codes"] == [0, 0, 1, 1, 0, 0, 0, 0]  # the n = 3, p = 4 Schatten sum diverges
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
