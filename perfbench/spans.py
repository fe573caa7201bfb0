"""In-memory span tracer that wraps the public API of the ``mcert`` package.

``Tracer.install()`` replaces every public function of every ``mcert``
module (and the public methods of its public classes) with a wrapper
that records one span per call: name, start, end, parent span and job id.
A wrapped function is patched in every ``mcert`` module namespace that
holds it by name, so ``from .x import f`` call sites are traced too.
``Tracer.uninstall()`` restores every original object.

Two calls that are not ``mcert`` functions are traced where ``mcert``
makes them: ``scipy.linalg.expm`` as imported by ``mcert.geometry``, and
``numpy.linalg.svd`` as reached through ``mcert.schur``'s ``np``.

The ``cli`` layer boundary is ``cli.main`` alone, so the sweep loops in
the ``cmd_*`` pipelines count as ``cli`` self time.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
import types
from array import array

import numpy as np

# dunder methods that carry real work on the package's classes
_TRACED_DUNDERS = ("__call__", "__post_init__")
DISTINCT_SCALE = 1e10  # matrices equal after rounding to 1e-10 count as one


class _Proxy(types.ModuleType):
    """Module stand-in that overrides some attributes of ``target``."""

    def __init__(self, target, **overrides):
        super().__init__(target.__name__)
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Collects spans while installed; one instance per traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.job_id = -1
        self.counters = {"symbols.eval.matrices": 0, "sphere.schatten_sum.k_used": 0}
        self._distinct: set = set()
        self.distinct_total = 0
        self._patches: list = []

    # -- span recording -----------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin_job(self, job_id: int) -> None:
        self.job_id = job_id
        self.distinct_total += len(self._distinct)
        self._distinct = set()

    def wrap(self, name: str, fn, observe=None):
        nid = self._intern(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.name_id)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1])
            tracer.job.append(tracer.job_id)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if observe is not None:
                # bookkeeping gets its own span so it is not charged to a layer
                tracer._observe(observe, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _observe(self, observe, args, out) -> None:
        t0 = time.perf_counter()
        observe(args, out)  # numpy only: opens no span of its own
        t1 = time.perf_counter()
        self.name_id.append(self._intern("perfbench.observe"))
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.start.append(t0)
        self.end.append(t1)

    # -- observers ----------------------------------------------------------

    def _observe_eval(self, args, out) -> None:
        mats = np.asarray(args[1], dtype=float)
        stack = mats.reshape(-1, mats.shape[-2], mats.shape[-1])
        self.counters["symbols.eval.matrices"] += stack.shape[0]
        keys = np.round(stack * DISTINCT_SCALE).astype(np.int64)
        for key in keys:
            self._distinct.add(key.tobytes())

    def _observe_schatten_sum(self, args, out) -> None:
        self.counters["sphere.schatten_sum.k_used"] += int(out.k_used)

    # -- patching -----------------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        import mcert

        modules = {}
        for info in pkgutil.iter_modules(mcert.__path__):
            modules[info.name] = importlib.import_module(f"mcert.{info.name}")
        observers = {
            "symbols.SymbolHandle.__call__": self._observe_eval,
            "sphere.schatten_derivative_sum": self._observe_schatten_sum,
        }

        replacements = {}  # id(original) -> wrapper, for namespace patching
        originals = {}
        for short, mod in sorted(modules.items()):
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(f"{short}.{attr}", obj, observers)
                elif inspect.isfunction(obj):
                    if short == "cli" and attr != "main":
                        continue
                    name = f"{short}.{attr}"
                    replacements[id(obj)] = self.wrap(name, obj, observers.get(name))
                    originals[id(obj)] = obj
        expm = getattr(modules["geometry"], "expm", None)  # layers that vanish read 0
        if expm is not None:
            replacements[id(expm)] = self.wrap("geometry.expm", expm)
            originals[id(expm)] = expm

        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements and originals[id(value)] is value:
                    self._set(mod, attr, replacements[id(value)])

        schur = modules["schur"]
        if getattr(schur, "np", None) is np:
            svd = self.wrap("schur.svd", np.linalg.svd)
            self._set(schur, "np", _Proxy(np, linalg=_Proxy(np.linalg, svd=svd)))

    def _wrap_class(self, name: str, cls, observers) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _TRACED_DUNDERS:
                continue
            full = f"{name}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(full, raw.__func__, observers.get(full)))
            elif inspect.isfunction(raw):
                wrapped = self.wrap(full, raw, observers.get(full))
            else:  # properties and data attributes stay as they are
                continue
            self._set(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        self.begin_job(-1)  # counts the last job's distinct matrices
        return False

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy arrays, plus each span's self time."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return {"name_id": names, "parent": parent, "job": np.frombuffer(self.job, dtype=np.int32),
                "start": start, "end": end, "self": dur - child}

    def totals(self) -> dict:
        """{span name: (calls, inclusive seconds, self seconds)}."""
        a = self.arrays()
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        incl = np.bincount(a["name_id"], weights=a["end"] - a["start"], minlength=k)
        own = np.bincount(a["name_id"], weights=a["self"], minlength=k)
        return {n: (int(calls[i]), float(incl[i]), float(own[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)
