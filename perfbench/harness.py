"""Closed-loop runner: one client issues a workload's jobs in sequence.

Each job is an in-process call to ``mcert.cli.main(argv)``; the next job
starts when the previous one has returned. Every report is checked
against the job's oracle, and repeated identical jobs must write
byte-identical reports outside ``header``.

``--trace 0`` measures the end-to-end metrics, with ``speed.Meter``
sampling the host's speed around every job; job times are reported at the
meter's reference speed. ``--trace 1`` runs the job list once untraced and
once under ``spans.Tracer`` and reports the per-layer metrics; the
wall-time difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import environment
import jobs as joblib
import speed

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
JOB_LIMIT_S = 60.0  # a job running longer counts as failed
RUN_DEADLINE_S = 150.0  # jobs not started by then count as failed
SETUP_PROBES = 7
TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)

END_TO_END = {"wall_s": "s", "job_s_p50": "s", "job_s_tail": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# per-layer metric -> the span names it aggregates ("x." matches a prefix)
LAYER_SPANS = {
    "geometry.lie_derivative": "geometry.lie_derivative",
    "geometry.dist_to_identity": "geometry.dist_to_identity",
    "geometry.kak_decompose": "geometry.kak_decompose",
    "geometry.group_element": "geometry.GroupElement.__post_init__",
    "geometry.expm": "geometry.expm",
    "geometry.weyl_ball_volume": "geometry.weyl_ball_volume",
    "symbols.eval": "symbols.SymbolHandle.__call__",
    "symbols.read_matrix_csv": "symbols.read_matrix_csv",
    "schur.lower_bound": "schur.schur_norm_lower_bound",
    "schur.schatten_norm": "schur.schatten_norm",
    "schur.svd": "schur.svd",
    "composition.frame": "composition.CompositionFrame.",
    "sphere.gegenbauer": "sphere.gegenbauer_normalized",
    "sphere.schatten_sum": "sphere.schatten_derivative_sum",
    "cli.main": "cli.main",
}
PER_LAYER = {
    "geometry.lie_derivative.calls": "count", "geometry.lie_derivative.self_s": "s",
    "geometry.dist_to_identity.calls": "count", "geometry.dist_to_identity.self_s": "s",
    "geometry.kak_decompose.calls": "count", "geometry.group_element.count": "count",
    "geometry.expm.calls": "count", "geometry.weyl_ball_volume.self_s": "s",
    "symbols.eval.calls": "count", "symbols.eval.matrices": "count",
    "symbols.eval.self_s": "s", "symbols.eval.distinct_ratio": "ratio",
    "symbols.read_matrix_csv.self_s": "s",
    "schur.lower_bound.calls": "count", "schur.lower_bound.self_s": "s",
    "schur.schatten_norm.calls": "count", "schur.schatten_norm.self_s": "s",
    "schur.svd.calls": "count", "schur.svd.self_s": "s",
    "composition.frame.calls": "count", "composition.frame.self_s": "s",
    "sphere.gegenbauer.calls": "count", "sphere.gegenbauer.self_s": "s",
    "sphere.schatten_sum.calls": "count", "sphere.schatten_sum.self_s": "s",
    "sphere.schatten_sum.k_used": "count",
    "report.write.self_s": "s", "report.bytes": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}
UNMEASURED = {"euclidean": "no CLI pipeline calls into mcert.euclidean"}


class JobTimeout(BaseException):
    """Raised in the job by SIGALRM; a BaseException so library code cannot swallow it."""


def _alarm(signum, frame):
    raise JobTimeout()


@dataclass
class JobRun:
    name: str
    seconds: float  # measured, without the meter's kernel time
    problems: list
    canonical: str = ""
    report_bytes: int = 0
    factor: float = 1.0  # host-speed factor from speed.Meter; 1.0 when unmetered

    @property
    def scaled(self) -> float:
        """The job's time at the meter's reference host speed."""
        return self.seconds * self.factor


@dataclass
class Measurement:
    passes: list = field(default_factory=list)  # untraced passes: lists of JobRun
    traced: list = field(default_factory=list)  # the traced pass, when tracing
    not_run: int = 0
    setup: list = field(default_factory=list)
    tracer: object = None

    def all_runs(self) -> list:
        return [r for p in self.passes + [self.traced] for r in p]

    @property
    def attempted(self) -> int:
        return len(self.all_runs()) + self.not_run

    @property
    def failed(self) -> int:
        return sum(1 for r in self.all_runs() if r.problems) + self.not_run


# ---------------------------------------------------------------------------
# running jobs


def import_cli():
    """Import mcert.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "mcert" / "cli.py").is_file():
        raise SystemExit(f"error: no mcert sources under {src}")
    sys.path.insert(0, str(src))
    import mcert.cli

    if src.resolve() not in Path(mcert.cli.__file__).resolve().parents:
        raise SystemExit(f"error: imported mcert from {mcert.cli.__file__}, not {src}")
    return mcert.cli


def run_job(cli, job, reports: Path, limit: float, meter=None) -> JobRun:
    out = reports / f"{job.name}.json"
    argv = job.argv + ["--out", str(out)]
    sink = io.StringIO()
    rc, error = None, None
    if meter is not None:
        meter.start()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, limit)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)  # looked up per call, so a traced main is used
    except JobTimeout:
        error = f"exceeded the {limit:.0f} s job limit"
    except Exception as exc:  # a crash fails the job, not the run
        error = f"raised {exc!r}"
    finally:
        if meter is not None:
            meter.stop()
        seconds = time.perf_counter() - t0 - (meter.inside_s if meter is not None else 0.0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    factor = meter.factor if meter is not None else 1.0
    if error:
        return JobRun(job.name, seconds, [error], factor=factor)
    try:
        report = joblib.load_report(out)
        problems = job.check(rc, report, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return JobRun(job.name, seconds, [f"unreadable report: {exc!r}"], factor=factor)
    text = joblib.canonical(report)
    extra = sum(p.stat().st_size for p in reports.glob(f"{job.name}_*.csv"))
    return JobRun(job.name, seconds, problems, text, len(text.encode("utf-8")) + extra, factor)


def run_pass(cli, job_list, reports: Path, deadline: float, m: Measurement,
             tracer=None, meter=None) -> list:
    runs = []
    for i, job in enumerate(job_list):
        left = deadline - time.perf_counter()
        if left <= 0:
            m.not_run += len(job_list) - i
            break
        if tracer is not None:
            tracer.begin_job(i)
        runs.append(run_job(cli, job, reports, min(JOB_LIMIT_S, left), meter))
    return runs


def check_repeats(m: Measurement, job_list) -> None:
    """Jobs with identical arguments must write identical reports outside header."""
    argv = {job.name: tuple(job.argv) for job in job_list}
    first = {}
    for run in m.all_runs():
        if run.problems:
            continue
        key = argv[run.name]
        if key not in first:
            first[key] = run
        elif run.canonical != first[key].canonical:
            run.problems.append(f"report differs from the identical job {first[key].name}")


def probe_setup(workload: str, seed: int, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter until its first job is ready."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=120)
    if rc != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe exited {rc}")
    return seconds


def measure(workload: str, seed: int, seconds: float, trace: bool) -> Measurement:
    """Set the workload up, then run it for about ``seconds``.

    The pass count comes from ``seconds`` and the workload's nominal pass
    time, not from the clock, so every run does the same number of jobs
    however fast the machine is at the moment."""
    workdir = OUT / f"run-{workload}-{seed}-{os.getpid()}"
    try:
        setup = [] if trace else [probe_setup(workload, seed, workdir / f"probe{i}")
                                  for i in range(SETUP_PROBES)]
        cli = import_cli()
        job_list = joblib.build(workload, seed, workdir / "inputs")
        passes = max(1, int(seconds // joblib.PASS_SECONDS[workload]))
        m = run_jobs(cli, job_list, workdir / "reports", passes, trace)
        m.setup = setup
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return m


def run_jobs(cli, job_list, reports: Path, passes: int, trace: bool) -> Measurement:
    """Run the job list ``passes`` times under the speed meter; traced, run
    it unmetered twice (the first pass warms caches) and then once under
    the tracer."""
    m = Measurement()
    reports.mkdir(parents=True, exist_ok=True)
    deadline = time.perf_counter() + RUN_DEADLINE_S
    meter = None if trace else speed.Meter()
    for _ in range(2 if trace else passes):
        m.passes.append(run_pass(cli, job_list, reports, deadline, m, meter=meter))
    if trace:
        import spans

        with spans.Tracer() as tracer:
            m.traced = run_pass(cli, job_list, reports, deadline, m, tracer)
        m.tracer = tracer
    check_repeats(m, job_list)
    return m


# ---------------------------------------------------------------------------
# metrics


def tail(times: list) -> tuple:
    """Time at the highest listed percentile with at least ten samples above it."""
    xs = sorted(times)
    if len(xs) >= 2:
        cuts = statistics.quantiles(xs, n=1000, method="inclusive")
        for permille in TAIL_PERMILLE:
            value = cuts[permille - 1]
            if sum(1 for x in xs if x > value) >= 10:
                return value, f"p{permille / 10:g}"
    return xs[-1], "max"  # too few jobs for a percentile with ten samples beyond it


def end_to_end(m: Measurement) -> tuple:
    """Times at the reference host speed; the measured ones go to the notes."""
    walls = [sum(r.scaled for r in p) for p in m.passes]
    times = [r.scaled for p in m.passes for r in p]
    raw = [r.seconds for p in m.passes for r in p]
    tail_s, tail_q = tail(times)
    values = {
        "wall_s": statistics.median(walls),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_s,
        "setup_s": statistics.median(m.setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"passes": len(walls), "jobs_per_pass": len(m.passes[0]), "jobs": len(times),
             "job_s_tail_quantile": tail_q,
             "job_s_tail_beyond": sum(1 for t in times if t > tail_s),
             "setup_probes": len(m.setup), "fail_ratio": m.failed / max(m.attempted, 1),
             "measured_wall_s": statistics.median(sum(r.seconds for r in p) for p in m.passes),
             "measured_job_s_p50": statistics.median(raw),
             "measured_job_s_tail": tail(raw)[0],
             "speed_factor_median": statistics.median(r.factor for p in m.passes for r in p),
             "pass_seconds": walls,
             "job_seconds": {r.name: [round(p[i].seconds, 4) for p in m.passes if i < len(p)]
                             for i, r in enumerate(m.passes[0])},
             "job_factors": {r.name: [round(p[i].factor, 4) for p in m.passes if i < len(p)]
                             for i, r in enumerate(m.passes[0])}}
    return values, notes


def per_layer(m: Measurement) -> tuple:
    totals = m.tracer.totals()
    values = {}
    for layer, key in LAYER_SPANS.items():
        hit = [v for n, v in totals.items() if (n.startswith(key) if key.endswith(".") else n == key)]
        values[f"{layer}.calls"] = values[f"{layer}.count"] = sum(v[0] for v in hit)
        values[f"{layer}.self_s"] = sum(v[2] for v in hit)
    counters = m.tracer.counters
    matrices = counters["symbols.eval.matrices"]
    values["symbols.eval.matrices"] = matrices
    values["symbols.eval.distinct_ratio"] = m.tracer.distinct_total / matrices if matrices else 0.0
    values["sphere.schatten_sum.k_used"] = counters["sphere.schatten_sum.k_used"]
    values["report.write.self_s"] = sum(totals.get(f"report.CertificationReport.{f}", (0, 0.0, 0))[1]
                                        for f in ("save", "save_tables_csv"))
    values["report.bytes"] = sum(r.report_bytes for r in m.traced)
    untraced = sum(r.seconds for r in m.passes[-1])
    values["trace.overhead_s"] = sum(r.seconds for r in m.traced) - untraced
    values["trace.spans"] = len(m.tracer.name_id)
    chosen = {k: values[k] for k in PER_LAYER}
    notes = {"untraced_wall_s": untraced, "spans": {n: list(v) for n, v in sorted(totals.items())},
             "unmeasured": UNMEASURED}
    return chosen, notes


# ---------------------------------------------------------------------------
# entry point


def _parse(argv):
    ap = argparse.ArgumentParser(description="mcert benchmark: run one workload")
    ap.add_argument("--workload", required=True, choices=joblib.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv, blas_threads: int) -> int:
    args = _parse(argv)
    if args.setup_probe:  # the work a fresh process does before its first job
        import_cli()
        joblib.build(args.workload, args.seed, args.workdir / "inputs")
        print("ready", flush=True)
        return 0

    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    env = environment.describe(ROOT, blas_threads)
    if args.trace:
        values, notes = per_layer(m)
        values["src.loc"] = env["loc"]["src.loc"]  # per-module counts stay in env
        units = {**PER_LAYER, "src.loc": "lines"}
    else:
        values, notes = end_to_end(m)
        units = END_TO_END
    problems = {r.name: r.problems for r in m.all_runs() if r.problems}
    result = {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}

    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "result": result, "notes": notes, "problems": problems,
                   "environment": env}, fh, indent=1, sort_keys=True)
    if m.tracer is not None:
        m.tracer.save(f"{stem}.spans.npz")

    for key, value in env.items():
        print(f"env {key} = {value}")
    for name, msgs in problems.items():
        print(f"FAILED {name}: {'; '.join(msgs)}")
    for key, value in notes.items():
        if key != "spans":
            print(f"note {key} = {value}")
    for key, value in values.items():
        print(f"metric {key} = {value:.6g} {units[key]}")
    print(json.dumps(result))
    return 0
