"""Command-line certification pipelines.

Subcommands wrap the library modules and emit structured reports:

* ``certify-hm``       - derivative-growth sweep of a group symbol
* ``rigidity``         - radial rigidity records (and optional sections)
* ``sphere-spectrum``  - eigenvalue tables with oracle cross-checks
* ``schur-bound``      - multiplier lower bound for a CSV symbol matrix
* ``geometry``         - chamber volume growth against the critical index

Exit codes: 0 all checks pass, 1 any failure, 2 input error, 3 accuracy
error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import geometry as geo
from . import sphere
from .errors import AccuracyError, DomainError, InputError, NumericError, RangeError
from .report import FAIL, INCONCLUSIVE, PASS, CertificationReport, CheckRecord, input_digest
from .schur import (TruncatedSchurMultiplier, profile_rigidity_records, rigidity_witness,
                    schur_norm_exact_p2, schur_norm_lower_bound)
from .symbols import SymbolFamily, SymbolHandle, read_matrix_csv

__all__ = ["main", "cmd_certify_hm", "cmd_rigidity", "cmd_sphere_spectrum",
           "cmd_schur_bound", "cmd_geometry"]


def _check_count(flag: str, value: int, least: int, most: int | None = None) -> None:
    if value < least:
        raise InputError(f"{flag} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise InputError(f"{flag} must be <= {most}, got {value}")


_MAX_SECTIONS = 8  # section i has 8 * 2^i points: at most 1,024 (16 MB per dense array)
_MAX_RANK = 64  # from n = 79 at p = inf the rigidity envelopes of order [alpha] overflow floats
_MAX_ORDER = 170  # k! overflows a float from k = 171


def _basis_indices(dim: int, per_order: int) -> list:
    """``per_order`` distinct basis directions spread over the basis."""
    if not 1 <= per_order <= dim:
        raise InputError(f"--per-order must be in 1..{dim} (the basis size), got {per_order}")
    return np.round(np.linspace(0, dim - 1, per_order)).astype(int).tolist()


def _sweep_points(n: int, shells: int, seed: int):
    """Local shells plus asymptotic rays; returns (local, rays), each ray a list of
    group elements moving out from the identity."""
    rng = np.random.default_rng(seed)
    dirs = np.zeros((3, n, n))  # diagonal, plane rotation, square-zero; unit normalized HS
    dirs[0, 0, 0], dirs[0, -1, -1] = 1.0, -1.0
    dirs[1, 0, 1], dirs[1, 1, 0] = 1.0, -1.0
    dirs[2, 0, 1] = 1.0
    dirs = dirs / np.linalg.norm(dirs, axis=(1, 2), keepdims=True) * math.sqrt(n)
    flows = np.stack([geo.expm(d, np.geomspace(1e-3, 0.6, shells)) for d in dirs], axis=1)
    local = [geo.GroupElement(g) for g in flows.reshape(-1, n, n)]  # shell by shell

    rays = []
    z_dirs = [np.array([1.0] + [0.0] * (n - 2) + [-1.0])]
    if n >= 3:
        z = np.ones(n)
        z[-1] = -(n - 1)
        z_dirs.append(z / max(z.max(), -z.min()))
    k1 = geo.haar_so(n, 2, rng)
    for z in z_dirs:
        pts = []
        for logl in np.linspace(1.0, 3.0, 5):
            a = np.diag(np.exp(logl * z / max(z.max(), -z.min())))
            a /= np.linalg.det(a) ** (1.0 / n)
            pts.append(geo.GroupElement(k1[0] @ a @ k1[1]))
        rays.append(pts)
    return local, rays


def _fit_exponent(ls, vals):
    """Minus the log-log slope through the values above 1e-14, or None below three of them."""
    ls = np.asarray(ls, dtype=float)
    vals = np.asarray(vals, dtype=float)
    keep = vals > 1e-14
    if keep.sum() < 3:
        return None
    return float(-np.polyfit(np.log(ls[keep]), np.log(vals[keep]), 1)[0])


def _median_fit(tables):
    """Median over the rays of the exponents fitted to their (1 + d, value) tables, or None."""
    fits = [_fit_exponent([x for x, _ in tab], [v for _, v in tab]) for tab in tables]
    fits = [f for f in fits if f is not None]
    return float(np.median(fits)) if fits else None


def cmd_certify_hm(symbol: SymbolHandle, n: int, order: int | None = None,
                   shells: int = 5, seed: int = 0, per_order: int = 3) -> CertificationReport:
    """Sweep the derivative-growth condition over local shells and rays.

    Per derivative order k: sup over sampled points g and directions X_j of
    d^k |X_j^k m(g)|, d = dist(g, e), with the exact derivatives of the lift
    (:func:`geometry.lie_derivative`, all orders in one call per direction);
    failed when the order-0 values keep growing along the rays.  When the
    sweep covers the top two orders, the decay exponents fitted along the
    rays against 1 + d are compared across them.
    """
    _check_count("--n", n, 2)
    sigma = n * n // 2
    order = sigma + 1 if order is None else order
    _check_count("--order", order, 0, _MAX_ORDER)
    _check_count("--grid-levels", shells, 1)
    basis = geo.lie_basis(n)
    dirs = _basis_indices(len(basis), per_order)
    local, rays = _sweep_points(n, shells, seed)

    rep = CertificationReport(command="certify-hm")
    rep.seeds["sweep"] = seed

    # every sweep point in one stack: local points first, then the rays in order
    stack = np.stack([g.entries for g in local + [g for pts in rays for g in pts]])
    dists = geo.dist_to_identity(stack)
    ray_x = (1.0 + dists[len(local):]).reshape(len(rays), -1).tolist()
    # v = max over the directions of |X_j^k m| per order k and point
    derivs = [geo.lie_derivative(symbol.profile, stack, basis[j], order)[1:] for j in dirs]
    vmax = np.vstack([np.abs(symbol(stack)), np.max(np.abs(derivs), axis=0)])

    sup_per_order, ray_fits = {}, {}
    for k in range(order + 1):
        sup_per_order[k] = float(np.max(dists ** k * vmax[k], initial=0.0))
        ray_vals = vmax[k, len(local):].reshape(len(rays), -1).tolist()
        tabs = [list(zip(xs, vs)) for xs, vs in zip(ray_x, ray_vals)]  # (1 + d, v) along each ray
        if k == 0:  # divergence: compare the farthest ray values with the nearest
            diverging = any(tab[-1][1] > 2.0 * max(tab[0][1], 1e-12) and tab[-1][1] > 1.0
                            for tab in tabs)
            fitted_decay = _median_fit(tabs)
            verdict = FAIL if diverging else PASS
            details = {"fitted_decay_exponent": fitted_decay,
                       "ray_values": {f"(0, {r})": tab for r, tab in enumerate(tabs)}}
        else:
            verdict = PASS if math.isfinite(sup_per_order[k]) else FAIL
            details = {"indices": [[j] * k for j in dirs]}
            if k >= sigma:
                ray_fits[k] = _median_fit(tabs)
        rep.add(CheckRecord(name=f"hm-order-{k}", check_id=f"hm/order-{k}", verdict=verdict,
                            measured=sup_per_order[k], details=details))

    if order >= sigma + 1:
        fa, fb = ray_fits.get(sigma), ray_fits.get(sigma + 1)
        if fa is None and fb is None:
            verdict, detail = PASS, "derivatives vanish along rays"
            measured = None
        elif fa is None or fb is None:
            verdict, detail = INCONCLUSIVE, "one order vanished, the other did not"
            measured = fa if fb is None else fb
        else:
            # the fits compare a sufficient condition: a gap does not refute it
            measured = abs(fa - fb)
            verdict = PASS if measured <= 0.2 * max(abs(fa), abs(fb), 1.0) else INCONCLUSIVE
            detail = f"fitted exponents {fa:.3f} vs {fb:.3f}"
        rep.add(CheckRecord(
            name="decay-propagation", check_id="hm/decay-propagation",
            verdict=verdict, measured=measured, tolerance=0.2,
            details={"note": detail, "order_low": sigma, "order_high": sigma + 1},
        ))

    rep.add_table("hm_constants", [
        {"order": k, "constant": sup_per_order[k]} for k in sorted(sup_per_order)
    ])
    overall = max(sup_per_order.values())
    rep.add(CheckRecord(
        name="hm-constant", check_id="hm/constant",
        verdict=PASS if (math.isfinite(overall) and not diverging) else FAIL,
        measured=overall,
        details={"max_order": order, "fitted_decay_exponent": fitted_decay},
    ))
    return rep


def cmd_rigidity(family: SymbolFamily, n: int, p: float, sections: int = 0,
                 mode: str = "hs", seed: int = 0) -> CertificationReport:
    """Radial rigidity records for a profile family.

    With ``sections`` > 0, finite Schur sections at growing angular
    resolutions supply the one-sided boundedness evidence.  The
    sufficiency record compares the fitted decay exponent of the profile
    against the critical index of the requested rank; a shortfall is
    INCONCLUSIVE, because the condition is sufficient, not necessary.
    """
    _check_count("--n", n, 3, _MAX_RANK)
    _check_count("--sections", sections, 0, _MAX_SECTIONS)
    profile = family.build_profile()
    rep = CertificationReport(command="rigidity")
    rep.seeds["sections"] = seed

    if sections:
        sizes = tuple(8 * 2 ** i for i in range(max(2, sections)))
        wit = rigidity_witness(profile, n, p, point_sets=sizes, mode=mode, seed=seed)
        for r in wit.records:
            rep.add(r)
        rep.add_table("section_lower_bounds", [
            {"points": s, "lower_bound": lo, "upper_bound": hi}
            for s, lo, hi in zip(sizes, wit.lower_bounds, wit.upper_bounds)])
        ex = wit.exponents
        rep.tables["classification"] = [{"classification": wit.classification}]
    else:
        records, ex = profile_rigidity_records(profile, n, p)
        for r in records:
            rep.add(r)

    rep.add_table("exponents", [{
        "alpha0": ex.alpha0, "alpha": ex.alpha,
        **{f"c{k}": v for k, v in enumerate(ex.c)},
    }])

    sigma1 = n * n // 2 + 1
    xs = np.geomspace(10.0, 1e4, 25)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing profile fits no exponent
        phi_inf = float(np.asarray(profile(np.array([4e4])), dtype=float).reshape(-1)[0])
        vals = np.abs(np.asarray(profile(xs), dtype=float) - phi_inf)
        fitted = _fit_exponent(xs, vals)  # None: phi - phi_inf vanishes faster than any power
    rep.add(CheckRecord(
        name="hm-sufficient-decay", check_id="hm/sufficient-decay",
        verdict=PASS if fitted is None or fitted >= 0.9 * sigma1 else INCONCLUSIVE,
        measured=fitted, bound=float(sigma1), tolerance=0.1,
        details={"note": "fitted tail exponent against the rank's critical index"},
    ))
    return rep


def cmd_sphere_spectrum(n: int, p: float, r: int, x_list, k_max: int) -> CertificationReport:
    """Eigenvalue/multiplicity table with recurrence-vs-quadrature check
    and the Schatten sum at the requested derivative order."""
    rep = CertificationReport(command="sphere-spectrum")
    xs = np.asarray(list(x_list), dtype=float)
    mults = [sphere.multiplicity(n, k) for k in range(k_max + 1)]  # checks k_max before the table
    table = sphere.eigenvalue_table(n, xs, k_max)
    rep.add_table("spectrum", [
        {"k": k, "m_k": m_k, **{f"phi(x={x:g})": float(v) for x, v in zip(xs, table[k])}}
        for k, m_k in enumerate(mults)])

    k_check = min(k_max, 50)
    worst = 0.0
    for k in range(k_check + 1):
        b = sphere.gegenbauer_integral(n, k, xs)
        worst = max(worst, float(np.max(np.abs(table[k] - b))))
    rep.add(CheckRecord(
        name="recurrence-vs-quadrature", check_id="sphere/recurrence-quadrature",
        verdict=PASS if worst <= 1e-10 else FAIL,
        measured=worst, tolerance=1e-10,
        details={"k_max_checked": k_check},
    ))

    for x in xs:
        res = sphere.schatten_derivative_sum(n, p, r, float(x))
        rep.add(CheckRecord(
            name=f"schatten-sum(x={x:g})", check_id="sphere/schatten-sum",
            verdict=PASS,
            measured=None if res.diverged else res.value,
            details={"diverged": res.diverged, "k_used": res.k_used,
                     "tail_bound": res.tail_bound, "order": r, "p": p},
        ))
    return rep


def cmd_schur_bound(matrix, p: float, seed: int = 0, iterations: int = 60) -> CertificationReport:
    """The bracket of :func:`schur.schur_norm_lower_bound` for a sampled symbol
    matrix: its lower bound and its certified upper bound, the Frobenius bound or,
    for a square matrix, the smaller of it and the circulant bound, interpolated.

    The lower bound fails only when it exceeds the upper bound by more
    than its 1e-8 relative tolerance, which covers the rounding of the
    optimizer's ratio.  Zero iterations give the sup-entry floor."""
    _check_count("--iterations", iterations, 0)
    rep = CertificationReport(command="schur-bound")
    rep.seeds["optimizer"] = seed
    m = TruncatedSchurMultiplier(matrix)
    res = schur_norm_lower_bound(m, p, seed=seed, iterations=iterations)
    rep.add(CheckRecord(
        name="lower-bound", check_id="schur/lower-bound",
        verdict=FAIL if res.value > res.upper * (1.0 + 1e-8) else PASS,
        measured=res.value, bound=res.upper, tolerance=1e-8,
        details={"p": None if math.isinf(p) else p, "iterations": iterations,
                 "best_start": res.best_start, "best_iteration": res.best_iteration,
                 "upper_bound": res.upper},
    ))
    rep.add_table("bound", [{"p": "inf" if math.isinf(p) else p, "lower_bound": res.value,
                             "sup_entry": schur_norm_exact_p2(m), "upper_bound": res.upper}])
    return rep


def cmd_geometry(n: int, r_list) -> CertificationReport:
    """Chamber ball volumes over a radius list and the growth-rate record, fitted to the
    positive volumes: INCONCLUSIVE when they sit at fewer than three distinct radii."""
    rep = CertificationReport(command="geometry")
    rs = np.asarray(list(r_list), dtype=float)
    vols = np.array([geo.weyl_ball_volume(n, float(r)) for r in rs])
    rep.add_table("volumes", [{"R": float(r), "volume": float(v)} for r, v in zip(rs, vols)])
    sigma = n * n // 2
    if len(rs) >= 3:
        keep = vols > 0.0  # an underflowed volume has no logarithm
        fit = len(np.unique(rs[keep])) >= 3
        slope = float(np.polyfit(rs[keep], np.log(vols[keep]), 1)[0]) if fit else None
        rep.add(CheckRecord(
            name="volume-growth-rate", check_id="geometry/volume-growth",
            verdict=(INCONCLUSIVE if not fit else PASS if abs(slope - sigma) <= 0.05 * sigma
                     else FAIL),
            measured=slope, bound=float(sigma), tolerance=0.05,
            details={} if fit else {"note": "fewer than three distinct radii with a positive volume"},
        ))
    return rep


# ---------------------------------------------------------------------------
# argparse front end

# command -> report builder on the parsed arguments
_BUILDERS = {
    "certify-hm": lambda a: cmd_certify_hm(
        SymbolFamily.parse(a.symbol).build_group_symbol(),
        n=a.n, order=a.order, shells=a.grid_levels, seed=a.seed, per_order=a.per_order),
    "rigidity": lambda a: cmd_rigidity(SymbolFamily.parse(a.profile), n=a.n, p=a.p,
                                       sections=a.sections, mode=a.mode, seed=a.seed),
    "sphere-spectrum": lambda a: cmd_sphere_spectrum(a.n, a.p, a.r, a.x, a.kmax),
    "schur-bound": lambda a: cmd_schur_bound(read_matrix_csv(a.points), a.p, seed=a.seed,
                                             iterations=a.iterations),
    "geometry": lambda a: cmd_geometry(a.n, a.R),
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
                   help="number of growing finite sections (0 = records only)")
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
    s.add_argument("--iterations", type=int, default=60)
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
        rep = _BUILDERS[args.command](args)
    except (InputError, DomainError, RangeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, NumericError) as exc:
        print(f"accuracy error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    # a command that records no seed drew no random numbers and ignores --seed
    rep.digest = input_digest({k: v for k, v in vars(args).items()
                               if k not in ("out", "format") and (k != "seed" or rep.seeds)})
    return _finish(rep, args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
