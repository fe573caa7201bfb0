"""The traced run repeats its counters and leaves the reports unchanged.

    python3 -m pytest perfbench/tests -q

The job mix takes the cheap jobs of every workload, so each traced layer
does some work in a few seconds.
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import harness  # noqa: E402
import jobs  # noqa: E402

SEED = 7
CHEAP = {"hm-sweep": {"hm2", "hm4"},
         "rigidity-sections": {"sec5-constant"},
         "schur-csv": {"schur48-p2", "schur32-p4", "schur32-again"},
         "desk-reports": None}
COUNTERS = (".calls", ".count", ".matrices", "report.bytes", "sphere.schatten_sum.k_used")


def cheap_jobs(inputs: Path) -> list:
    out = []
    for workload, keep in CHEAP.items():
        out += [j for j in jobs.build(workload, SEED, inputs) if keep is None or j.name in keep]
    return out


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    cli = harness.import_cli()
    runs = []
    for i in range(2):
        base = tmp_path_factory.mktemp(f"run{i}")
        runs.append(harness.run_jobs(cli, cheap_jobs(base / "inputs"), base / "reports",
                                     passes=1, trace=True))
    return runs


def test_counters_repeat_exactly(traced_runs):
    first, second = (harness.per_layer(m)[0] for m in traced_runs)
    names = [k for k in first if k.endswith(COUNTERS)]
    assert {k: first[k] for k in names} == {k: second[k] for k in names}
    for key in ("geometry.lie_derivative.calls", "geometry.group_element.count",
                "symbols.eval.matrices", "schur.svd.calls", "composition.frame.calls",
                "sphere.schatten_sum.k_used", "report.bytes"):
        assert first[key] > 0, key


def test_traced_reports_match_untraced(traced_runs):
    for m in traced_runs:
        assert m.failed == 0, {r.name: r.problems for r in m.all_runs() if r.problems}
        untraced = {r.name: r.canonical for r in m.passes[-1]}
        assert {r.name: r.canonical for r in m.traced} == untraced


def test_tracer_restores_every_patch(traced_runs):
    import mcert.cli
    import mcert.geometry
    import mcert.schur
    import numpy as np

    assert not hasattr(mcert.cli.main, "__wrapped__")
    assert not hasattr(mcert.cli.rigidity_witness, "__wrapped__")
    assert not hasattr(mcert.geometry.expm, "__wrapped__")
    assert not hasattr(mcert.geometry.GroupElement.__post_init__, "__wrapped__")
    assert mcert.schur.np is np


def test_job_limit_fails_a_hanging_job(tmp_path):
    class Hanging:
        @staticmethod
        def main(argv):
            time.sleep(30)

    run = harness.run_job(Hanging, jobs.Job("hang", ["geometry"]), tmp_path, limit=0.2)
    assert run.seconds < 5
    assert run.problems and "job limit" in run.problems[0]


def test_meter_samples_inside_a_job_and_leaves_no_handler(tmp_path):
    import signal

    import speed

    class Busy:
        @staticmethod
        def main(argv):
            end = time.process_time() + 1.0
            while time.process_time() < end:
                pass

    before = signal.getsignal(signal.SIGPROF)
    meter = speed.Meter()
    t0 = time.perf_counter()
    run = harness.run_job(Busy, jobs.Job("busy", ["geometry"]), tmp_path, limit=30, meter=meter)
    elapsed = time.perf_counter() - t0
    assert len(meter.samples) >= 3  # the sample before the job and ticks inside it
    assert meter.inside_s > 0 and run.seconds + meter.inside_s <= elapsed
    assert run.factor == meter.factor > 0
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
