"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with -v/-s or in the
captured output) and enforces its tolerance with plain asserts.
"""

import json
import math
import time

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from mcert.cli import main
from mcert.composition import (CompositionFrame, DerivativeJet, bell_coefficient_mass,
                               composition_derivative_bound, faa_di_bruno,
                               hs_coordinate, opnorm_coordinate,
                               opnorm_coordinate_derivative, shear_operator_norm,
                               so_n1_embedded_matrix, so_n1_trace_coefficients)
from mcert.euclidean import (DyadicPartition, GridSpec, frac_laplacian_length,
                             local_inversion, lp_partition_value, schur_infty_upper_bound,
                             sigma_partition_value, sobolev_norm_w)
from mcert.geometry import GroupElement, haar_so, harish_chandra_xi, identity, weyl_ball_volume
from mcert.schur import TruncatedSchurMultiplier, schur_norm_exact_p2, schur_norm_lower_bound
from mcert.sphere import (averaging_operator, eigenvalue_table, multiplicity, quadrature_table,
                          schatten_derivative_sum, sphere_grid)
from mcert.symbols import EuclideanSymbol, _smooth_bump

from test_euclidean import psi_direct_quadrature


def report(number, name, detail=""):
    print(f"ACCEPTANCE {number:02d} {name}: PASS {detail}")


def test_criterion_01_sphere_oracle():
    start = time.monotonic()
    pts = sphere_grid(30.0)
    pole = np.array([0.3, -0.5, 0.81])
    pole /= np.linalg.norm(pole)
    # degrees 0..10 at once: f(y) is the table of eigenfunctions on the last axis
    f = lambda y: np.moveaxis(eigenvalue_table(3, np.clip(y @ pole, -1.0, 1.0), 10), 0, -1)
    fx = f(pts)
    worst = 0.0
    for delta in (-0.9, -0.5, 0.0, 0.5, 0.9):
        got = averaging_operator(delta, f, pts, circle_nodes=360)
        worst = max(worst, float(np.abs(got - eigenvalue_table(3, delta, 10) * fx).max()))
    assert worst <= 1e-4

    xs = np.linspace(-0.95, 0.95, 21)
    worst_int = float(np.abs(eigenvalue_table(3, xs, 50) - quadrature_table(3, xs, 50)).max())
    assert worst_int <= 1e-10

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(1, "sphere-oracle",
           f"(eigen residual {worst:.2e}, quadrature residual {worst_int:.2e}, {elapsed:.1f}s)")


def test_criterion_02_multiplicities_exact():
    assert [multiplicity(3, k) for k in range(101)] == [2 * k + 1 for k in range(101)]
    assert [multiplicity(4, k) for k in range(101)] == [(k + 1) ** 2 for k in range(101)]
    report(2, "multiplicities-exact")


def test_criterion_03_schatten_convergence_law():
    res = schatten_derivative_sum(5, 4.0, 0, 0.0, tail_tol=1e-6)
    assert not res.diverged
    res2 = schatten_derivative_sum(5, 4.0, 0, 0.0, tail_tol=1e-6, k_start=2 * res.k_used)
    assert abs(res.value - res2.value) < 1e-6
    flagged = schatten_derivative_sum(5, 4.0, 1, 0.0)
    assert flagged.diverged and flagged.value is None
    report(3, "schatten-convergence-law",
           f"(r=0 value {res.value:.8f}, Cauchy gap {abs(res.value - res2.value):.1e}, r=1 divergent)")


def test_criterion_04_faa_di_bruno():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        fc = rng.uniform(-1, 1, 6)
        pc = rng.uniform(-1, 1, 6)
        x0 = float(rng.uniform(-1, 1))
        comp = fc[0] * np.ones(1)
        acc = np.ones(1)
        for i in range(1, 6):
            acc = P.polymul(acc, pc)
            comp = P.polyadd(comp, fc[i] * acc)
        phi0 = P.polyval(x0, pc)
        for k in range(1, 6):
            f_jet = DerivativeJet([P.polyval(phi0, P.polyder(fc, j)) for j in range(1, k + 1)])
            p_jet = DerivativeJet([P.polyval(x0, P.polyder(pc, j)) for j in range(1, k + 1)])
            got = faa_di_bruno(f_jet, p_jet, k)
            want = P.polyval(x0, P.polyder(comp, k))
            worst = max(worst, abs(got - want) / max(abs(want), 1.0))
            f_norm = max(abs(v) for v in f_jet.values)
            bound = composition_derivative_bound(f_norm, [abs(v) for v in p_jet.values], k)
            assert abs(got) <= bound * (1 + 1e-12) + 1e-12
    assert worst <= 1e-10
    report(4, "faa-di-bruno", f"(worst relative error {worst:.2e}, zero bound violations)")


def test_criterion_05_coordinate_change_suite():
    # inverse identity over r in [0.1, 5]
    worst_inv = 0.0
    for r in np.linspace(0.1, 5.0, 25):
        frame = CompositionFrame.create(3, float(r))
        xs = np.geomspace(frame.x_min, frame.x_max, 40)
        rec = frame.x_min * shear_operator_norm(
            opnorm_coordinate(frame, xs) * math.sinh(frame.r - frame.s))
        worst_inv = max(worst_inv, float(np.max(np.abs(rec - xs) / xs)))
    assert worst_inv <= 1e-10

    # operator norm of the conjugated rotation vs the closed form, n = 3..6
    worst_op = 0.0
    worst_hs = 0.0
    for n in range(3, 7):
        frame = CompositionFrame.create(n, 1.1)
        for delta in np.linspace(0.0, 1.0, 11):
            mat = frame.conjugated_rotation(float(delta))
            top = np.linalg.svd(mat, compute_uv=False)[0]
            worst_op = max(worst_op, abs(top - float(frame.opnorm_of_delta(delta))))
            hs = math.sqrt(np.sum(mat * mat) / n)
            worst_hs = max(worst_hs, abs(hs - float(frame.hs_of_delta(delta))))
    assert worst_op <= 1e-10
    assert worst_hs <= 1e-12

    # g(sinh u) = e^u
    us = np.linspace(0.0, 10.0, 51)
    rel = np.abs(shear_operator_norm(np.sinh(us)) - np.exp(us)) / np.exp(us)
    assert float(rel.max()) <= 1e-12

    # closed-form derivatives against Richardson central differences
    frame = CompositionFrame.create(3, 1.2)
    xs = np.linspace(frame.x_min * 1.05, frame.x_max * 0.95, 9)
    worst_fd = 0.0
    for x in xs:
        for j in range(1, 5):
            prev = (lambda t: opnorm_coordinate(frame, t)) if j == 1 else \
                (lambda t: opnorm_coordinate_derivative(frame, j - 1, t))
            h = 1e-2 * x
            central = lambda hh: (prev(x + hh) - prev(x - hh)) / (2 * hh)
            fd = (4.0 * central(h / 2) - central(h)) / 3.0
            cf = opnorm_coordinate_derivative(frame, j, x)
            worst_fd = max(worst_fd, abs(cf - fd) / abs(cf))
    assert worst_fd <= 1e-6
    report(5, "coordinate-change-suite",
           f"(inverse {worst_inv:.1e}, opnorm {worst_op:.1e}, hs {worst_hs:.1e}, fd {worst_fd:.1e})")


def test_criterion_06_lorentz_coefficients():
    worst = 0.0
    for n in (3, 4, 5):
        for r in (0.2, 0.7, 1.5, 3.0):
            a, b, c, _ = so_n1_trace_coefficients(n, r)
            for delta in np.linspace(0.0, 1.0, 11):
                mat = so_n1_embedded_matrix(n, r, float(delta))
                worst = max(worst, abs(np.sum(mat * mat) - (a * delta ** 2 + b * delta + c)))
    assert worst <= 1e-10
    for r in np.linspace(0.01, 10.0, 60):
        a, b, _, _ = so_n1_trace_coefficients(3, float(r))
        assert b / a >= 2.0 - 1e-12
    report(6, "lorentz-coefficients", f"(trace residual {worst:.1e}, ratio law holds)")


def test_criterion_07_euclidean_suite():
    part = DyadicPartition()
    rng = np.random.default_rng(7)
    worst_sum = 0.0
    for _ in range(10):
        xi = rng.normal(size=2) * 10.0 ** rng.uniform(-3, 3)
        total = sum(lp_partition_value(part, j, xi) ** 2 for j in range(-40, 41))
        worst_sum = max(worst_sum, abs(total - 1.0))
    assert worst_sum <= 1e-12

    for j, nw in [(0, 1), (3, 2), (-2, 3)]:
        val = sigma_partition_value(part, nw, j, np.array([2.0 ** j, 0.0]))
        assert (2 * nw + 1) * val == pytest.approx(1.0, abs=1e-14)

    grid = GridSpec(1, box_halfwidth=12.0, box_points=1 << 15)

    def bump(lam):
        def ev(x):
            return _smooth_bump(2.0 * (lam * np.abs(x[..., 0]) - 1.5))
        return EuclideanSymbol(1, ev, support_radius=2.0 / lam, inner_radius=1.0 / lam)

    base = sobolev_norm_w(bump(1.0), 0.3, grid)
    worst_dil = 0.0
    for lam in (0.25, 0.5, 2.0, 4.0):
        val = sobolev_norm_w(bump(lam), 0.3, grid)
        worst_dil = max(worst_dil, abs(val / base - 1.0))
    assert worst_dil <= 0.02

    worst_psi = 0.0
    for d, eps in [(1, 0.3), (2, 0.5)]:
        for rho in (1.0, 2.0):
            v, _ = frac_laplacian_length(d, eps, np.array([rho] + [0.0] * (d - 1)))
            oracle = psi_direct_quadrature(d, eps, rho)
            worst_psi = max(worst_psi, abs(v - oracle) / oracle)
    assert worst_psi <= 1e-6

    worst_inv = 0.0
    for _ in range(20):
        a = rng.standard_normal((3, 3)) * 0.4
        worst_inv = max(worst_inv, float(np.abs(local_inversion(local_inversion(a)) - a).max()))
    assert worst_inv <= 1e-12
    report(7, "euclidean-suite",
           f"(partition {worst_sum:.1e}, dilation {worst_dil:.2%}, psi {worst_psi:.1e}, "
           f"involution {worst_inv:.1e})")


def test_criterion_08_schur_suite():
    rng = np.random.default_rng(88)
    for _ in range(5):
        m = TruncatedSchurMultiplier(rng.standard_normal((9, 9))
                                     + 1j * rng.standard_normal((9, 9)))
        res = schur_norm_lower_bound(m, 2.0, seed=3)
        assert abs(res.value - schur_norm_exact_p2(m)) <= 1e-6
        for p in (1.0, 4.0, math.inf):
            res_p = schur_norm_lower_bound(m, p, seed=3)
            assert res_p.value >= np.abs(m.symbol).max() - 1e-8

    sym_big = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    res_small = schur_norm_lower_bound(TruncatedSchurMultiplier(sym_big[:6, :6]),
                                       math.inf, seed=4)
    pad = np.zeros((12, 12), dtype=complex)
    pad[:6, :6] = res_small.best_input
    res_big = schur_norm_lower_bound(TruncatedSchurMultiplier(sym_big), math.inf,
                                     seed=4, extra_starts=[pad])
    assert res_small.value <= res_big.value + 1e-8

    deg = 3
    checked = 0
    for trial in range(20):
        c = (rng.standard_normal((2 * deg + 1, 2 * deg + 1))
             + 1j * rng.standard_normal((2 * deg + 1, 2 * deg + 1)))
        c *= np.exp(-0.7 * (np.abs(np.arange(-deg, deg + 1))[:, None]
                            + np.abs(np.arange(-deg, deg + 1))[None, :]))

        def sym(x, y, c=c):
            out = np.zeros(np.broadcast_shapes(x[..., 0].shape, y[..., 0].shape),
                           dtype=complex)
            for a in range(-deg, deg + 1):
                for b in range(-deg, deg + 1):
                    out = out + c[a + deg, b + deg] * np.exp(
                        2j * math.pi * (a * x[..., 0] + b * y[..., 0]))
            return out

        ub = schur_infty_upper_bound(sym, 1, 1)
        xs = (np.arange(20) + 0.5) / 20.0
        section = sym(xs[:, None, None], xs[None, :, None])
        lb = schur_norm_lower_bound(TruncatedSchurMultiplier(section), math.inf, seed=trial)
        assert ub.value >= lb.value - 1e-9
        assert ub.certified >= lb.value - 1e-9
        checked += 1
    assert checked == 20
    report(8, "schur-suite", "(p=2 law, sup-entry floor, restriction, 20 upper-vs-lower)")


def test_criterion_09_weyl_growth():
    start = time.monotonic()
    rs = np.linspace(2.0, 10.0, 9)
    for n, sigma in ((2, 2.0), (3, 4.0)):
        vols = np.array([weyl_ball_volume(n, float(r))[0] for r in rs])
        slope = float(np.polyfit(rs, np.log(vols), 1)[0])
        assert abs(slope - sigma) <= 0.05 * sigma, (n, slope)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(9, "weyl-growth", f"({elapsed:.1f}s)")


def test_criterion_10_harish_chandra():
    val, err = harish_chandra_xi(identity(2), samples=1000, seed=0)
    assert val == 1.0 and err == 0.0

    # K-biinvariance with matched seeds at 1e5 samples
    rng = np.random.default_rng(55)
    g = GroupElement(np.diag([math.e, 1.0, 1.0 / math.e]))
    base, _ = harish_chandra_xi(g, samples=100_000, seed=123)
    spread = 0.0
    for _ in range(4):
        k1 = GroupElement(haar_so(3, 1, rng)[0])
        k2 = GroupElement(haar_so(3, 1, rng)[0])
        val, _ = harish_chandra_xi(k1 @ g @ k2, samples=100_000, seed=123)
        spread = max(spread, abs(val - base) / base)
    assert spread <= 0.01

    # n = 2 envelope on R in [1, 5]: e^{-R} below, C e^{-2R/3} above
    cs = []
    for r in np.linspace(1.0, 5.0, 9):
        g2 = GroupElement(np.diag([math.exp(r), math.exp(-r)]))
        val, err = harish_chandra_xi(g2, samples=100_000, seed=9)
        assert val + 3 * err >= math.exp(-r)
        cs.append(val / math.exp(-2.0 * r / 3.0))
    c_measured = max(cs)
    assert math.isfinite(c_measured) and c_measured < 10.0
    report(10, "harish-chandra", f"(biinvariance spread {spread:.2%}, envelope C {c_measured:.2f})")


def test_criterion_11_rigidity_gap_demo(tmp_path):
    rc_pass = main(["rigidity", "--profile", "radial-power:exponent=5", "--n", "3",
                    "--p", "10", "--out", str(tmp_path / "rank3.json")])
    rc_fail = main(["rigidity", "--profile", "radial-power:exponent=5", "--n", "16",
                    "--p", "100", "--out", str(tmp_path / "rank16.json")])
    assert rc_pass == 0
    assert rc_fail == 1
    rep16 = json.loads((tmp_path / "rank16.json").read_text(encoding="utf-8"))
    exps = rep16["tables"]["exponents"][0]
    assert exps["c0"] == pytest.approx(16.0 / 3.0)
    assert exps["c0"] > 5.0  # the rank-3 critical decay this profile satisfies
    report(11, "rigidity-gap-demo", "(exit 0 at rank 3; exit 1 at rank 16, p=100)")


def test_criterion_12_report_determinism(tmp_path):
    def run(tag):
        paths = {}
        paths["rigidity"] = tmp_path / f"rig_{tag}.json"
        main(["rigidity", "--profile", "radial-power:exponent=5", "--n", "3", "--p", "10",
              "--sections", "2", "--seed", "7", "--out", str(paths["rigidity"])])
        paths["geometry"] = tmp_path / f"geo_{tag}.json"
        main(["geometry", "--n", "2", "--R", "2", "4", "6", "8",
              "--seed", "7", "--out", str(paths["geometry"])])
        paths["sphere"] = tmp_path / f"sph_{tag}.json"
        main(["sphere-spectrum", "--n", "3", "--p", "4", "--x", "0.5", "--kmax", "8",
              "--seed", "7", "--out", str(paths["sphere"])])
        return paths

    first = run("a")
    second = run("b")
    for key in first:
        ra = json.loads(first[key].read_text(encoding="utf-8"))
        rb = json.loads(second[key].read_text(encoding="utf-8"))
        ra.pop("header")
        rb.pop("header")
        assert json.dumps(ra, sort_keys=True) == json.dumps(rb, sort_keys=True), key
    report(12, "report-determinism", "(3 pipelines, byte-identical modulo header)")
