"""Every count of every public entry point, a rank, order, degree, size or seed, is decided
by ``errors.check_count``: a fractional value or a bool is an InputError that names the
count, by its command-line flag where the CLI reaches it, else by its parameter."""

import math

import numpy as np
import pytest

from mcert import composition as co
from mcert import euclidean as eu
from mcert import geometry as ge
from mcert import rigidity as ri
from mcert import schur as sc
from mcert import sphere as sp
from mcert.cli import cmd_schur_bound, main
from mcert.errors import InputError, RangeError, check_count
from mcert.symbols import SymbolFamily

PROFILE = SymbolFamily.parse("radial-power:exponent=5").build_profile()
SYMBOL = SymbolFamily.parse("radial-power:exponent=5").build_group_symbol()
JET = co.DerivativeJet((1.0, 2.0, 3.0))
FRAME = co.CompositionFrame.create(3, 0.75)
MATRIX = np.arange(16.0).reshape(4, 4) / 16.0
Z3 = [1.0, 1.0, 1.0]


def rng():
    return np.random.default_rng(0)


def first_coordinate(x, y):
    return x[..., 0]


def north(y):
    return y[..., 2]


# (entry point, the count's name in the message, the call with the count set to v)
CASES = [
    ("bell_polynomial", "k", lambda v: co.bell_polynomial(v, 1, Z3)),
    ("bell_polynomial", "j", lambda v: co.bell_polynomial(3, v, Z3)),
    ("bell_coefficient_mass", "k", lambda v: co.bell_coefficient_mass(v)),
    ("faa_di_bruno", "k", lambda v: co.faa_di_bruno(JET, JET, v)),
    ("composition_derivative_bound", "k", lambda v: co.composition_derivative_bound(1.0, Z3, v)),
    ("rotation_matrix", "n", lambda v: co.rotation_matrix(v, 0.5)),
    ("CompositionFrame.create", "n", lambda v: co.CompositionFrame.create(v, 0.75)),
    ("opnorm_coordinate_derivative", "j",
     lambda v: co.opnorm_coordinate_derivative(FRAME, v, FRAME.x_min)),
    ("so_n1_trace_coefficients", "n", lambda v: co.so_n1_trace_coefficients(v, 0.75)),
    ("so_n1_embedded_matrix", "n", lambda v: co.so_n1_embedded_matrix(v, 0.75, 0.5)),
    ("lp_partition_value", "j", lambda v: eu.lp_partition_value(eu.DyadicPartition(), v, 1.0)),
    ("sigma_partition_value", "n_width",
     lambda v: eu.sigma_partition_value(eu.DyadicPartition(), v, 0, 1.0)),
    ("sigma_partition_value", "j",
     lambda v: eu.sigma_partition_value(eu.DyadicPartition(), 1, v, 1.0)),
    ("frac_laplacian_constant", "d", lambda v: eu.frac_laplacian_constant(v, 0.5)),
    ("frac_laplacian_length", "d", lambda v: eu.frac_laplacian_length(v, 0.5, 1.0)),
    ("GridSpec", "d", lambda v: eu.GridSpec(v)),
    ("GridSpec", "box_points", lambda v: eu.GridSpec(1, box_points=v)),
    ("schur_infty_upper_bound", "d1", lambda v: eu.schur_infty_upper_bound(first_coordinate, v, 1)),
    ("schur_infty_upper_bound", "d2", lambda v: eu.schur_infty_upper_bound(first_coordinate, 1, v)),
    ("identity", "n", lambda v: ge.identity(v)),
    ("lie_basis", "n", lambda v: ge.lie_basis(v)),
    ("lie_derivative", "order",
     lambda v: ge.lie_derivative(SYMBOL.profile, ge.identity(3), ge.lie_basis(3)[0], v)),
    ("weyl_ball_volume", "--n", lambda v: ge.weyl_ball_volume(v, 1.0)),
    ("harish_chandra_xi", "samples", lambda v: ge.harish_chandra_xi(ge.identity(3), samples=v)),
    ("harish_chandra_xi", "seed", lambda v: ge.harish_chandra_xi(ge.identity(3), 8, seed=v)),
    ("haar_so", "n", lambda v: ge.haar_so(v, 2, rng())),
    ("haar_so", "size", lambda v: ge.haar_so(3, v, rng())),
    ("certify_hm_report", "--n", lambda v: ge.certify_hm_report(SYMBOL, v)),
    ("certify_hm_report", "--order", lambda v: ge.certify_hm_report(SYMBOL, 3, order=v)),
    ("certify_hm_report", "--grid-levels", lambda v: ge.certify_hm_report(SYMBOL, 3, shells=v)),
    ("certify_hm_report", "--per-order", lambda v: ge.certify_hm_report(SYMBOL, 3, per_order=v)),
    ("certify_hm_report", "--seed", lambda v: ge.certify_hm_report(SYMBOL, 3, seed=v)),
    ("volume_report", "--n", lambda v: ge.volume_report(v, [2.0, 3.0, 4.0])),
    ("eigenvalue_table", "n", lambda v: sp.eigenvalue_table(v, 0.5, 4)),
    ("eigenvalue_table", "k_cap", lambda v: sp.eigenvalue_table(3, 0.5, v)),
    ("quadrature_table", "n", lambda v: sp.quadrature_table(v, 0.5, 4)),
    ("quadrature_table", "k_cap", lambda v: sp.quadrature_table(3, 0.5, v)),
    ("multiplicity", "n", lambda v: sp.multiplicity(v, 2)),
    ("multiplicity", "k", lambda v: sp.multiplicity(3, v)),
    ("RigidityExponents.compute", "n", lambda v: sp.RigidityExponents.compute(v, 10.0)),
    ("schatten_derivative_sum", "n", lambda v: sp.schatten_derivative_sum(v, 8.0, 0, 0.3)),
    ("schatten_derivative_sum", "r", lambda v: sp.schatten_derivative_sum(5, 8.0, v, 0.3)),
    ("schatten_derivative_sum", "k_start",
     lambda v: sp.schatten_derivative_sum(5, 8.0, 0, 0.3, k_start=v)),
    ("averaging_operator", "circle_nodes",
     lambda v: sp.averaging_operator(0.5, north, [[0.0, 0.0, 1.0]], circle_nodes=v)),
    ("spectrum_report", "--n", lambda v: sp.spectrum_report(v, 4.0, 0, [0.5], 4)),
    ("spectrum_report", "--r", lambda v: sp.spectrum_report(3, 4.0, v, [0.5], 4)),
    ("spectrum_report", "--kmax", lambda v: sp.spectrum_report(3, 4.0, 0, [0.5], v)),
    ("RadialProfile.jet", "order", lambda v: PROFILE.jet(2.0, v)),
    ("profile_rigidity_records", "n", lambda v: ri.profile_rigidity_records(PROFILE, v, 10.0)),
    ("rigidity_witness", "n", lambda v: ri.rigidity_witness(PROFILE, v, 10.0, sections=2)),
    ("rigidity_witness", "--sections", lambda v: ri.rigidity_witness(PROFILE, 3, 10.0, v)),
    ("rigidity_witness", "--seed", lambda v: ri.rigidity_witness(PROFILE, 3, 10.0, 2, seed=v)),
    ("rigidity_report", "--n", lambda v: ri.rigidity_report(PROFILE, v, 10.0)),
    ("rigidity_report", "--sections", lambda v: ri.rigidity_report(PROFILE, 3, 10.0, v)),
    ("rigidity_report", "--seed", lambda v: ri.rigidity_report(PROFILE, 3, 10.0, 2, seed=v)),
    ("schur_norm_lower_bound", "--iterations",
     lambda v: sc.schur_norm_lower_bound(MATRIX, 4.0, iterations=v)),
    ("schur_norm_lower_bound", "--seed", lambda v: sc.schur_norm_lower_bound(MATRIX, 4.0, seed=v)),
    ("circulant_lower_bound", "--seed",
     lambda v: sc.circulant_lower_bound(np.arange(1.0, 9.0), 4.0, seed=v)),
    ("cmd_schur_bound", "--iterations", lambda v: cmd_schur_bound(MATRIX, 4.0, 0, v)),
    ("cmd_schur_bound", "--seed", lambda v: cmd_schur_bound(MATRIX, 4.0, v, 10)),
]


@pytest.mark.parametrize("value", [2.5, True], ids=["fraction", "bool"])
@pytest.mark.parametrize("name, call", [case[1:] for case in CASES],
                         ids=[f"{entry}-{name}" for entry, name, _ in CASES])
def test_a_count_that_is_no_integer_is_input_error(name, call, value):
    with pytest.raises(InputError) as exc:
        call(value)
    assert str(exc.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("value", [2.0, np.float64(2.0), False, "3", math.nan, None])
def test_check_count_takes_integers_alone(value):
    with pytest.raises(InputError) as exc:
        check_count("--n", value, 2, 5)
    assert str(exc.value) == f"--n must be an integer, got {value!r}"
    check_count("--n", np.int64(2), 2, 5)  # a numpy integer is one


@pytest.mark.parametrize("argv, message", [
    (["sphere-spectrum", "--n", "2", "--x", "0.5"], "--n must be >= 3, got 2"),
    (["geometry", "--n", "6", "--R", "2", "3", "4"], "--n must be <= 5, got 6")])
def test_the_cli_names_the_flag(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


@pytest.mark.parametrize("j", [-1074, 1023])
def test_a_band_index_is_an_exponent_of_a_finite_positive_float(j):
    partition, xi = eu.DyadicPartition(), np.array([0.6, 0.8])
    assert 0.0 <= eu.lp_partition_value(partition, j, xi) <= 1.0
    assert 0.0 <= eu.sigma_partition_value(partition, 1, j, xi) <= 1.0
    beyond = j - 1 if j < 0 else j + 1
    bound = "must be >= -1074" if j < 0 else "must be <= 1023"
    for call in (lambda: eu.lp_partition_value(partition, beyond, xi),
                 lambda: eu.sigma_partition_value(partition, 1, beyond, xi)):
        with pytest.raises(InputError, match=f"j {bound}, got {beyond}"):
            call()


@pytest.mark.parametrize("name, call, message", [
    ("schur_infty_upper_bound", lambda: eu.schur_infty_upper_bound(first_coordinate, 3, 3),
     "d1 + d2 must be <= 4, got 6"),
    ("schur_infty_upper_bound", lambda: eu.schur_infty_upper_bound(first_coordinate, 1, 4),
     "d1 + d2 must be <= 4, got 5"),
    ("lie_basis", lambda: ge.lie_basis(65), "n must be <= 64, got 65"),
    ("lie_basis", lambda: ge.lie_basis(10 ** 6), "n must be <= 64, got 1000000"),
    ("schatten_derivative_sum",
     lambda: sp.schatten_derivative_sum(5, 8.0, 0, 0.3, k_start=2 ** 30),
     "k_start must be <= 262144, got 1073741824")])
def test_a_count_past_its_memory_cap_is_refused_before_any_array(name, call, message,
                                                                 monkeypatch):
    # d1 = d2 = 3 would sample 32^6 points, 17 GB, lie_basis(65) hold 143 MB, and a sum
    # from k_start = 2^30 tabulate tens of GiB: each is refused before numpy builds a
    # grid, a basis matrix or a table
    def no_array(*args, **kwargs):
        raise AssertionError(f"{name} built an array before its cap")

    for builder in ("meshgrid", "zeros", "empty", "array", "stack"):
        monkeypatch.setattr(np, builder, no_array)
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("k_cap", [200_001, 10 ** 9])
def test_a_table_past_the_degree_bound_is_refused_before_any_array(k_cap, monkeypatch):
    # eigenvalue_table meets the degree rule of multiplicity and --kmax, n + k - 3 within
    # the factorial bound, before x becomes an array: 10^9 degrees would ask for 8 GB
    def no_array(*args, **kwargs):
        raise AssertionError("eigenvalue_table built an array before its degree rule")

    for builder in ("asarray", "zeros", "empty", "array", "stack", "ones_like"):
        monkeypatch.setattr(np, builder, no_array)
    with pytest.raises(RangeError, match="factorial bound 200000"):
        sp.eigenvalue_table(3, 0.5, k_cap)
