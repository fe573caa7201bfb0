"""The radial rigidity witness: the decay, derivative and Hoelder inequalities
on a radial profile, and its finite Schur sections along diagonal-conjugated
rotation orbits, circulant symbols bracketed by :func:`mcert.schur.circulant_lower_bound`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import taylor
from .composition import CompositionFrame
from .errors import AccuracyError, InputError, RangeError, check_array, check_count
from .geometry import fit_exponent
from .report import (FAIL, INCONCLUSIVE, NECESSARY, PASS, SUFFICIENT, CertificationReport,
                     CheckRecord, worst_verdict)
from .schur import Bracket, circulant_lower_bound
from .sphere import RigidityExponents
from .symbols import RadialProfile

__all__ = ["WitnessResult", "rigidity_witness", "profile_rigidity_records", "CONSISTENT",
           "VIOLATED"]

CONSISTENT = "CONSISTENT"
VIOLATED = "VIOLATED"
_GROWTH_TOL = 0.05  # the relative growth that fails an envelope or the section bounds
_MAX_RANK = 64  # from n = 79 the order-[alpha] envelope weights overflow floats
_MAX_SECTIONS = 8  # section i has 8 * 2^i points: at most 1,024, held as first columns


def _growth(xs: np.ndarray, vals: np.ndarray) -> float:
    """The growth ratio of an envelope: its sup on the outer decade over the sup before it.

    A bounded envelope (decay inequality satisfiable with some constant)
    gives ratio <= 1 + noise; persistent growth gives ratio >> 1.  A NaN or
    inf value anywhere, where the envelope weights overflow, decides nothing:
    the ratio is NaN.
    """
    if not np.all(np.isfinite(vals)):
        return math.nan
    cut = xs.max() / 10.0
    head = float(vals[xs < cut].max(initial=0.0))
    tail = float(vals[xs >= cut].max(initial=0.0))
    return tail / head if head > 0.0 else (0.0 if tail <= 0.0 else math.inf)


def _grid_end(profile: RadialProfile) -> float:
    """X = max(1e4, 10 scale): the outer end of every rigidity grid, a decade past the
    profile's own scale, so that phi_inf is not sampled inside a compact bump.  A scale
    whose 4 X, where ``hm-sufficient-decay`` reads phi_inf, passes the float range is a
    RangeError."""
    x_end = max(1e4, 10.0 * profile.scale)
    if not math.isfinite(4.0 * x_end):
        raise RangeError(f"the profile scale {profile.scale!r} puts the rigidity grid end "
                         f"4 X = 40 scale past the float range")
    return x_end


@np.errstate(over="ignore", invalid="ignore")  # a NaN or inf envelope is INCONCLUSIVE
def profile_rigidity_records(profile: RadialProfile, n: int, p: float) -> tuple:
    """Evaluate the radial rigidity inequalities on a log grid of 80 points over
    [1.05, X], X = :func:`_grid_end`, with derivative records up to order [alpha].

    Returns (records, exponents).  Each record measures the growth ratio of
    one inequality's envelope against 1 + _GROWTH_TOL, and details its sup
    and exponent; the limit record measures the last dyadic difference of
    the profile on the dyadic ladder X 2^-5..X against half the largest,
    and phi_inf is the profile at X.  Every derivative comes
    from two profile jets to order [alpha], one at the grid points and
    one at the Hoelder offsets.  An envelope, a profile factor times a weight,
    is 0 where the factor is 0, even where the weight passes the float range.
    A profile that overflows on the grid leaves its records INCONCLUSIVE,
    without numpy warnings.
    """
    ex = RigidityExponents.compute(n, p)
    r = int(math.floor(ex.alpha))
    x_end = _grid_end(profile)
    xs = np.geomspace(1.05, x_end, 80)
    jet = profile.jet(xs, r)
    fact = taylor.factorials(r)  # phi^(k) = k! jet[k]
    records = []

    # limit existence: dyadic tail differences must shrink
    probes = np.sort(x_end * 2.0 ** -np.arange(6, dtype=float))
    pv = check_array("profile(x)", profile(probes))
    diffs = np.abs(np.diff(pv))
    finite = np.all(np.isfinite(diffs))  # an overflowing difference decides nothing
    phi_inf = float(pv[-1])
    records.append(CheckRecord(
        name="limit-existence", check_id="rigidity/limit", kind=NECESSARY,
        measured=float(diffs[-1]) if finite else math.nan, bound=0.5 * float(diffs.max()) + 1e-12,
        details={"phi_inf": phi_inf, "dyadic_diffs": [float(v) for v in diffs]},
    ))

    def envelope(name, check_id, factor, env, **exponent):
        env = np.where(factor == 0.0, 0.0, env)  # 0, not the NaN of 0 times an inf weight
        records.append(CheckRecord(
            name=name, check_id=check_id, kind=NECESSARY, measured=_growth(xs, env), bound=1.0,
            tolerance=_GROWTH_TOL, details={"envelope_sup": float(env.max()), **exponent}))

    # decay of phi - phi_inf at rate c0
    drop = jet[0] - phi_inf
    envelope("decay-c0", "rigidity/decay-c0", drop, np.abs(drop) * xs ** ex.c[0], c0=ex.c[0])
    for k in range(1, r + 1):  # derivative records
        envelope(f"derivative-c{k}", f"rigidity/derivative-c{k}", jet[k],
                 fact[k] * np.abs(jet[k]) * (xs - 1.0) ** k * xs ** ex.c[k],
                 order=k, ck=ex.c[k])

    # local Hoelder quotient of the [alpha]-th derivative
    gaps = 1e-3 * xs
    step = fact[r] * (profile.jet(xs + gaps, r)[r] - jet[r])
    envelope("hoelder-alpha", "rigidity/hoelder", step,
             np.abs(step) / gaps ** (ex.alpha - r) * ((xs - 1.0) * xs ** (n / (n - 2))) ** ex.alpha,
             alpha=ex.alpha)
    return records, ex


@dataclass
class WitnessResult:
    classification: str
    records: list
    brackets: list  # per section size, a Bracket of the largest ends over the radii
    exponents: RigidityExponents
    sizes: list  # the section sizes 8 * 2^i


def rigidity_witness(profile: RadialProfile, n: int, p: float, sections: int = 4,
                     mode: str = "hs", seed: int = 0) -> WitnessResult:
    """Classify a radial profile against the rigidity inequalities.

    ``sections`` finite sections, of 8 * 2^i points for i < sections, are sampled along
    diagonal-conjugated rotation orbits; their multiplier lower bounds
    must stay bounded for a profile consistent with S_p-boundedness.
    Each section is a circulant symbol (equispaced angles), held as its
    first column c_k = profile(x(cos 2 pi k / N)) and bracketed by
    :func:`circulant_lower_bound`, warm-started from the previous size's
    best input: its certified upper bound is the circulant bound
    interpolated to p, exact at p = infinity, and it stops as soon as its
    lower bound meets it.  ``brackets`` holds, per size, the largest lower
    and upper ends over the radii.
    Classification: CONSISTENT when every inequality record passes and
    the section bounds plateau; VIOLATED when an inequality fails or the
    bounds keep growing; INCONCLUSIVE otherwise.  Fewer than two sections, which the
    growth record cannot compare, more than _MAX_SECTIONS and a negative seed are
    InputErrors, named by their ``rigidity`` flags.
    """
    if mode not in ("hs", "opnorm"):
        raise InputError("mode must be 'hs' or 'opnorm'")
    check_count("--sections", sections, 2, _MAX_SECTIONS)
    check_count("--seed", seed, 0)
    sizes = [8 * 2 ** i for i in range(sections)]
    records, ex = profile_rigidity_records(profile, n, p)

    frames = [CompositionFrame.create(n, r) for r in (0.75, 1.5)]
    brackets = []
    best = [None] * len(frames)  # per frame: the best first column at the previous size
    for n_points in sizes:
        delta = np.cos(2.0 * math.pi * np.arange(n_points) / n_points)
        results = []
        for i, frame in enumerate(frames):
            xvals = frame.hs_of_delta(delta) if mode == "hs" else frame.opnorm_of_delta(np.abs(delta))
            with np.errstate(over="ignore", invalid="ignore"):
                c = check_array("profile(x)", profile(xvals), complex)
            if not np.all(np.isfinite(c)):
                raise AccuracyError(f"the profile overflows on the {n_points}-point section")
            results.append(circulant_lower_bound(c, p, seed=seed, warm=best[i]))
            best[i] = results[-1].best_column
        brackets.append(Bracket(max(res.bracket.lower for res in results),
                                max(res.bracket.upper for res in results)))

    # Saturating sections (shrinking increments) indicate a bounded
    # multiplier approached from below; persistent per-doubling growth
    # indicates divergence.  Both the last increment and its persistence
    # relative to the previous one must flag before we call it growth:
    # the measured min(last increment, persistence / 10) exceeds _GROWTH_TOL
    # exactly when the increment exceeds it and the persistence exceeds 1/2.
    lower_bounds = [b.lower for b in brackets]
    increments = [b / a - 1.0 if a > 0 else 0.0 for a, b in zip(lower_bounds, lower_bounds[1:])]
    last_inc = increments[-1] if increments else 0.0
    persistence = (increments[-1] / max(increments[-2], 1e-12)
                   if len(increments) >= 2 else 1.0)
    records.append(CheckRecord(
        name="section-growth", check_id="rigidity/section-growth", kind=NECESSARY,
        measured=min(float(last_inc), 0.1 * float(persistence)), bound=_GROWTH_TOL,
        details={"lower_bounds": [float(v) for v in lower_bounds],
                 "increments": [float(v) for v in increments],
                 "persistence": float(persistence),
                 "sizes": sizes, "mode": mode},
    ))

    classification = {PASS: CONSISTENT, FAIL: VIOLATED}.get(worst_verdict(records), INCONCLUSIVE)
    return WitnessResult(classification=classification, records=records, brackets=brackets,
                         exponents=ex, sizes=sizes)


def rigidity_report(profile: RadialProfile, n: int, p: float, sections: int = 0,
                    mode: str = "hs", seed: int = 0) -> CertificationReport:
    """The ``rigidity`` report: the radial records of a profile, or with ``sections``
    >= 2 its witness over that many finite sections of 8 * 2^i points, and the
    sufficiency record, the shortfall of the fitted decay exponent of phi - phi_inf
    below the rank's critical index [n^2/2] + 1.  A shortfall past a tenth of the
    index is INCONCLUSIVE, since the condition is sufficient, not necessary; a profile
    that reaches phi_inf faster than any power falls short by 0.  n and sections are
    checked first, each an InputError named by its ``rigidity`` flag.  The fit runs
    over 25 points on [X / 1e3, X], X = :func:`_grid_end`, against phi_inf at 4 X."""
    check_count("--n", n, 3, _MAX_RANK)
    check_count("--sections", sections, 0, _MAX_SECTIONS)
    if sections == 1:  # the growth record compares sizes
        raise InputError(f"--sections must be 0 or 2 to {_MAX_SECTIONS}, got 1")
    rep = CertificationReport(command="rigidity")
    if sections:
        rep.seeds["sections"] = seed
        wit = rigidity_witness(profile, n, p, sections=sections, mode=mode, seed=seed)
        records, ex = wit.records, wit.exponents
        rep.add_table("section_lower_bounds", [
            {"points": s, **b.fields()} for s, b in zip(wit.sizes, wit.brackets)])
        rep.add_table("classification", [{"classification": wit.classification}])
    else:
        records, ex = profile_rigidity_records(profile, n, p)
    for r in records:
        rep.add(r)
    rep.add_table("exponents", [{
        "alpha0": ex.alpha0, "alpha": ex.alpha,
        **{f"c{k}": v for k, v in enumerate(ex.c)},
    }])

    sigma1 = n * n // 2 + 1
    x_end = _grid_end(profile)
    xs = np.geomspace(x_end / 1e3, x_end, 25)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowing profile fits no exponent
        phi_inf = float(check_array("profile(x)", profile(np.array([4.0 * x_end]))).reshape(-1)[0])
        fitted = fit_exponent(xs, np.abs(check_array("profile(x)", profile(xs)) - phi_inf))
    rep.add(CheckRecord(
        name="hm-sufficient-decay", check_id="hm/sufficient-decay", kind=SUFFICIENT,
        measured=0.0 if fitted is None else float(np.maximum(sigma1 - fitted, 0.0)),  # NaN stays
        bound=0.1 * sigma1,
        details={"fitted_exponent": fitted, "critical_index": sigma1},
    ))
    return rep
