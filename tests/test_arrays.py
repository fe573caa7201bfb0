"""Every array of every public entry point, and every array a caller's callable returns to
it, is decided by ``errors.check_array``: a ragged nesting, an entry that is no number or a
complex one where the entry point computes in floats, and a NaN where it needs finite
entries, is an InputError that names the array, by its command-line flag where the CLI
reaches it, else by its parameter, or by the call that returned it."""

import warnings

import numpy as np
import pytest

from mcert import composition as co
from mcert import euclidean as eu
from mcert import geometry as ge
from mcert import rigidity as ri
from mcert import schur as sc
from mcert import sphere as sp
from mcert.errors import InputError, check_array
from mcert.symbols import EuclideanSymbol, RadialProfile, SymbolFamily

PROFILE = SymbolFamily.parse("radial-power:exponent=5").build_profile()
FRAME = co.CompositionFrame.create(3, 0.75)
MATRIX = np.arange(16.0).reshape(4, 4) / 16.0
G = ge.GroupElement(np.diag([2.0, 1.0, 0.5]))
NORTH = [[0.0, 0.0, 1.0]]
RAGGED = [[0.5], [0.5, 0.5]]


def profile_bad_on(shape, value):
    """PROFILE, except that it returns ``value`` at an argument of ``shape``."""
    return RadialProfile(lambda u: [value] * len(u) if np.shape(u[0]) == shape else PROFILE.of(u))


def returning(value):
    return lambda *args: value


# (entry point, the array's name in the message, its dtype, whether it must be finite,
# a valid value, the call with the array set to v)
CASES = [
    ("GroupElement", "entries", float, True, np.eye(3), ge.GroupElement),
    ("check_special_linear", "entries", float, True, np.eye(3), ge.check_special_linear),
    ("dist_to_identity", "mats", float, True, np.eye(2), ge.dist_to_identity),
    ("expm", "x", float, True, np.diag([1.0, -1.0]), ge.expm),
    ("expm", "s", float, True, 0.5, lambda v: ge.expm(np.diag([1.0, -1.0]), v)),
    ("lie_derivative", "x", float, True, ge.lie_basis(3)[0],
     lambda v: ge.lie_derivative(PROFILE, G, v, 2)),
    ("weyl_ball_volume", "--R", float, False, 1.0, lambda v: ge.weyl_ball_volume(3, v)),
    ("volume_report", "--R", float, False, [2.0, 3.0, 4.0], lambda v: ge.volume_report(3, v)),
    ("fit_exponent", "ls", float, False, [1.0, 2.0, 4.0],
     lambda v: ge.fit_exponent(v, [1.0, 0.5, 0.25])),
    ("fit_exponent", "vals", float, False, [1.0, 0.5, 0.25],
     lambda v: ge.fit_exponent([1.0, 2.0, 4.0], v)),
    ("TruncatedSchurMultiplier", "symbol", complex, True, MATRIX, sc.TruncatedSchurMultiplier),
    ("schur_norm_lower_bound", "extra_starts", complex, True, MATRIX,
     lambda v: sc.schur_norm_lower_bound(MATRIX, 4.0, extra_starts=[v])),
    ("circulant_lower_bound", "c", complex, True, np.arange(1.0, 9.0),
     lambda v: sc.circulant_lower_bound(v, 4.0)),
    ("circulant_lower_bound", "warm", complex, True, np.ones(4),
     lambda v: sc.circulant_lower_bound(np.arange(1.0, 9.0), 4.0, warm=v)),
    ("eigenvalue_table", "x", float, False, 0.5, lambda v: sp.eigenvalue_table(3, v, 3)),
    ("quadrature_table", "x", float, False, [0.1, 0.2], lambda v: sp.quadrature_table(3, v, 3)),
    ("spectrum_report", "--x", float, False, [0.5],
     lambda v: sp.spectrum_report(3, 4.0, 0, v, 4)),
    ("averaging_operator", "points", float, False, NORTH,
     lambda v: sp.averaging_operator(0.5, lambda y: y[..., 2], v)),
    ("averaging_operator", "f(y)", float, False, np.ones((1, 360)),
     lambda v: sp.averaging_operator(0.5, returning(v), NORTH)),
    ("RadialProfile.jet", "x", float, False, 2.0, lambda v: PROFILE.jet(v, 1)),
    ("EuclideanSymbol", "x", float, False, [[0.5]],
     lambda v: EuclideanSymbol(1, lambda x: x[..., 0])(v)),
    ("shear_operator_norm", "x", float, False, 0.5, co.shear_operator_norm),
    ("CompositionFrame.hs_of_delta", "delta", float, False, 0.5, FRAME.hs_of_delta),
    ("CompositionFrame.opnorm_of_delta", "delta", float, False, 0.5, FRAME.opnorm_of_delta),
    ("opnorm_coordinate", "x", float, False, FRAME.x_min,
     lambda v: co.opnorm_coordinate(FRAME, v)),
    ("DerivativeJet", "values", float, False, [1.0, 2.0, 3.0], co.DerivativeJet),
    ("bell_polynomial", "z", float, False, [1.0, 2.0, 3.0],
     lambda v: co.bell_polynomial(3, 1, v)),
    ("composition_derivative_bound", "phi_jet_sups", float, False, [1.0, 2.0, 3.0],
     lambda v: co.composition_derivative_bound(1.0, v, 3)),
    ("DyadicPartition.eta", "r", float, False, 1.5, eu.DyadicPartition().eta),
    ("lp_partition_value", "xi", float, False, [0.6, 0.8],
     lambda v: eu.lp_partition_value(eu.DyadicPartition(), 0, v)),
    ("local_inversion", "a", float, False, np.eye(2), eu.local_inversion),
    ("sobolev_norm_w", "m(x)", complex, False, np.zeros(8),
     lambda v: eu.sobolev_norm_w(EuclideanSymbol(1, returning(v), inner_radius=1.0), 0.5,
                                 eu.GridSpec(1, box_points=8))),
    ("schur_infty_upper_bound", "s(x, y)", complex, False, np.ones((32, 32)),
     lambda v: eu.schur_infty_upper_bound(returning(v), 1, 1)),
    ("lie_derivative", "phi.of(u)", float, False, np.ones((3, 1, 1)),
     lambda v: ge.lie_derivative(RadialProfile(returning(v)), G, ge.lie_basis(3)[0], 2)),
    ("profile_rigidity_records", "profile(x)", float, False, np.ones(6),
     lambda v: ri.profile_rigidity_records(profile_bad_on((6,), v), 3, 10.0)),
    ("rigidity_witness", "profile(x)", complex, False, np.ones(8),
     lambda v: ri.rigidity_witness(profile_bad_on((8,), v), 3, 10.0, sections=2)),
    ("rigidity_report", "profile(x)", float, False, np.ones(1),
     lambda v: ri.rigidity_report(profile_bad_on((1,), v), 3, 10.0)),
]


def bad_values(good, dtype, finite):
    """(kind, bad value, the message's tail) for one array, each from a valid value."""
    good = np.asarray(good, dtype=dtype)
    field = "real" if dtype is float else "complex"
    out = [("string", np.full(good.shape, "a"), f"must be an array of {field} numbers, got "
                                                 "dtype <U1")]
    if good.ndim < 3:  # a jet's arrays are checked for their shape first
        out.append(("ragged", RAGGED, f"must be an array of {field} numbers, got a ragged "
                                      "nesting"))
    if dtype is float:
        out.append(("complex", good + 1e-3j, "must be an array of real numbers, got dtype "
                                             "complex128"))
    if finite:
        nan = good.copy()
        nan.flat[0] = np.nan
        out.append(("nan", nan, "must be finite"))
    return out


ROWS = [(entry, name, value, tail) for entry, name, dtype, finite, good, call in CASES
        for kind, value, tail in bad_values(good, dtype, finite)]
IDS = [f"{entry}-{name}-{kind}" for entry, name, dtype, finite, good, call in CASES
       for kind, _, _ in bad_values(good, dtype, finite)]
CALLS = {(entry, name): call for entry, name, _, _, _, call in CASES}


@pytest.mark.parametrize("entry, name, value, tail", ROWS, ids=IDS)
def test_a_bad_array_is_an_input_error_that_names_it(entry, name, value, tail):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning would drop an imaginary part
        with pytest.raises(InputError) as exc:
            CALLS[entry, name](value)
    assert str(exc.value) == f"{name} {tail}"


@pytest.mark.parametrize("entry, name, dtype, finite, good, call", CASES,
                         ids=[f"{case[0]}-{case[1]}" for case in CASES])
def test_the_valid_value_passes(entry, name, dtype, finite, good, call):
    # the rows above differ from a call that works in the one array alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(good)


@pytest.mark.parametrize("value, dtype", [(np.linspace(0.0, 1.0, 5), float),
                                          (np.eye(3) * (1.0 + 2.0j), complex)])
def test_a_valid_array_is_neither_copied_nor_changed(value, dtype):
    assert check_array("x", value, dtype, finite=True) is value


def test_integers_and_lists_become_floats_with_their_bits():
    got = check_array("x", [[1, 2], [3, 2 ** 53 + 1]])
    assert got.dtype == float and got.tolist() == [[1.0, 2.0], [3.0, float(2 ** 53 + 1)]]
    assert check_array("c", [1, 2.5], complex).tolist() == [1.0, 2.5 + 0j]
    assert check_array("x", [np.inf, np.nan]).shape == (2,)  # finite only when asked
