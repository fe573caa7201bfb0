"""Command-line front end: the parser and one command-to-builder table.

The reports are built, and their inputs checked, in the library modules: ``certify-hm``
and ``geometry`` in ``geometry``, ``rigidity`` in ``rigidity``, ``sphere-spectrum`` in
``sphere``, and ``schur-bound`` here, because ``schur`` imports no report; this module
checks only ``--seed`` and ``--format csv``.  Exit codes: 0 every record passes, 1 any
fails or is inconclusive, 2 input error, 3 accuracy error.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import (AccuracyError, DomainError, InputError, NumericError, RangeError,
                     check_array, check_count)
from .geometry import certify_hm_report, volume_report
from .report import CROSS_CHECK, CertificationReport, CheckRecord, input_digest
# perfbench's tests read mcert.cli.rigidity_witness to see its tracer's patches undone
from .rigidity import rigidity_report, rigidity_witness  # noqa: F401
from .schur import (_ITERATIONS, TruncatedSchurMultiplier, schur_norm_exact_p2,
                    schur_norm_lower_bound)
from .sphere import spectrum_report
from .symbols import SymbolFamily, read_matrix_csv

__all__ = ["main"]


def cmd_schur_bound(matrix, p: float, seed: int, iterations: int) -> CertificationReport:
    """The bracket of :func:`schur.schur_norm_lower_bound` for a sampled symbol
    matrix: its lower bound and its certified upper bound, the Frobenius bound or,
    for a square matrix, the smaller of it and the circulant bound, interpolated;
    at p = inf, a Haagerup factorization certificate when one closes.  Both ends
    come with the relative gap upper / lower - 1 and the certificate steps.

    The lower bound is cross-checked against the upper bound, within a 1e-8
    relative tolerance that covers the rounding of the optimizer's ratio.
    Zero iterations give the sup-entry floor; a p outside [1, inf] is a DomainError named
    by its flag."""
    check_array("--p", p, shape=(), least=1.0)
    rep = CertificationReport(command="schur-bound")
    rep.seeds["optimizer"] = seed
    m = TruncatedSchurMultiplier(matrix)
    res = schur_norm_lower_bound(m, p, seed=seed, iterations=iterations)
    bracket = {**res.bracket.fields(), "relative_gap": res.bracket.relative_gap,
               "certificate_steps": res.certificate_steps}
    rep.add(CheckRecord(
        name="lower-bound", check_id="schur/lower-bound", kind=CROSS_CHECK,
        measured=res.bracket.lower, bound=res.bracket.upper, tolerance=1e-8,
        details={"p": None if math.isinf(p) else p, "iterations": iterations,
                 "best_start": res.best_start, "best_iteration": res.best_iteration,
                 **bracket},
    ))
    rep.add_table("bound", [{"p": "inf" if math.isinf(p) else p,
                             "sup_entry": schur_norm_exact_p2(m), **bracket}])
    return rep


# ---------------------------------------------------------------------------
# argparse front end

# command -> report builder on the parsed arguments
_BUILDERS = {
    "certify-hm": lambda a: certify_hm_report(
        SymbolFamily.parse(a.symbol).build_group_symbol(), a.n, a.order, shells=a.grid_levels,
        seed=a.seed, per_order=a.per_order),
    "rigidity": lambda a: rigidity_report(SymbolFamily.parse(a.profile).build_profile(), a.n,
                                          a.p, sections=a.sections, mode=a.mode, seed=a.seed),
    "sphere-spectrum": lambda a: spectrum_report(a.n, a.p, a.r, a.x, a.kmax),
    "schur-bound": lambda a: cmd_schur_bound(read_matrix_csv(a.points), a.p, seed=a.seed,
                                             iterations=a.iterations),
    "geometry": lambda a: volume_report(a.n, a.R),
}


def _add_common(sp):
    sp.add_argument("--out", default=None, help="report path (JSON)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--seed", type=int, default=0)


def _finish(report: CertificationReport, args) -> int:
    if args.out:
        report.save(args.out)
        if args.format == "csv":
            stem = args.out[:-5] if args.out.endswith(".json") else args.out
            report.save_tables_csv(stem)
    report.print_summary()
    return report.exit_code()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mcert",
                                     description="numerical multiplier certification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("certify-hm", help="derivative-growth sweep of a group symbol")
    s.add_argument("--symbol", required=True, help="family spec, e.g. radial-power:exponent=5")
    s.add_argument("--n", type=int, default=3)
    s.add_argument("--order", type=int, default=None)
    s.add_argument("--grid-levels", type=int, default=5, help="local shells per direction")
    s.add_argument("--per-order", type=int, default=3)
    _add_common(s)

    s = sub.add_parser("rigidity", help="radial rigidity records for a profile")
    s.add_argument("--profile", required=True, help="family spec, e.g. radial-power:exponent=5")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--sections", type=int, default=0,
                   help="number of growing finite sections, 0 or 2 to 8 (0 = records only)")
    s.add_argument("--mode", choices=("hs", "opnorm"), default="hs")
    _add_common(s)

    s = sub.add_parser("sphere-spectrum", help="eigenvalue table with oracle checks")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=float, default=4.0)
    s.add_argument("--r", type=int, default=0)
    s.add_argument("--x", type=float, nargs="+", default=(0.5,))
    s.add_argument("--kmax", type=int, default=10)
    _add_common(s)

    s = sub.add_parser("schur-bound", help="lower bound for a CSV symbol matrix")
    s.add_argument("--points", required=True, help="CSV with columns i,j,re,im")
    s.add_argument("--p", type=float, default=math.inf)
    s.add_argument("--iterations", type=int, default=_ITERATIONS,
                   help="step cap per optimizer start (default %(default)s)")
    _add_common(s)

    s = sub.add_parser("geometry", help="chamber volume growth")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--R", type=float, nargs="+", required=True)
    _add_common(s)
    return parser


_PARSER = _build_parser()  # built once per process; parse_args leaves it unchanged


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        check_count("--seed", args.seed, 0)
        if args.format == "csv" and not args.out:
            raise InputError("--format csv writes its tables next to the report: give --out")
        rep = _BUILDERS[args.command](args)
        # a command that records no seed drew no random numbers and ignores --seed
        rep.digest = input_digest({k: v for k, v in vars(args).items()
                                   if k not in ("out", "format") and (k != "seed" or rep.seeds)})
        return _finish(rep, args)
    except (InputError, DomainError, RangeError, OSError) as exc:  # OSError: --points, --out
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, NumericError) as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
