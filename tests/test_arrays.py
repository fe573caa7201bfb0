"""Every array of every public entry point, and every array a caller's callable returns to
it, is decided by ``errors.check_array``: a ragged nesting, an entry that is no number or a
complex one where the entry point computes in floats, a shape it does not take, and a NaN or
inf where it needs finite entries, is an InputError that names the array, by its
command-line flag where the CLI reaches it, else by its parameter, or by the call that
returned it.  A real value outside the interval the entry point declares, a NaN among them,
is a DomainError that names the value the same way, the interval and the first value outside."""

import math
import warnings

import numpy as np
import pytest

from mcert import composition as co
from mcert import euclidean as eu
from mcert import geometry as ge
from mcert import rigidity as ri
from mcert import schur as sc
from mcert import sphere as sp
from mcert.errors import DomainError, InputError, RangeError, check_array
from mcert.symbols import EuclideanSymbol, RadialProfile, SymbolFamily

PROFILE = SymbolFamily.parse("radial-power:exponent=5").build_profile()
FRAME = co.CompositionFrame.create(3, 0.75)
JET = co.DerivativeJet((1.0, 2.0, 3.0))
MATRIX = np.arange(16.0).reshape(4, 4) / 16.0
G = ge.GroupElement(np.diag([2.0, 1.0, 0.5]))
NORTH = [[0.0, 0.0, 1.0]]
RAGGED = [[0.5], [0.5, 0.5]]


def profile_bad_on(shape, value):
    """PROFILE, except that it returns ``value`` at an argument of ``shape``."""
    return RadialProfile(lambda u: [value] * len(u) if np.shape(u[0]) == shape else PROFILE.of(u))


def returning(value):
    return lambda *args: value


# (entry point, the array's name in the message, its dtype (None for a validated object,
# whose shape and finiteness alone are the entry point's to check), whether it must be
# finite, a valid value, the call with the array set to v, and, where the entry point decides
# a shape, its shape in the message followed by values of other shapes)
SQUARES = ("(..., n, n)", np.ones(3), np.ones((2, 3)))
CASES = [
    ("GroupElement", "entries", float, True, np.eye(3), ge.GroupElement, SQUARES),
    ("check_special_linear", "entries", float, True, np.eye(3), ge.check_special_linear,
     SQUARES),
    ("dist_to_identity", "mats", float, True, np.eye(2), ge.dist_to_identity, SQUARES),
    ("expm", "x", float, True, np.diag([1.0, -1.0]), ge.expm,
     ("(n, n)", np.ones(3), np.ones((2, 3)))),
    ("expm", "s", float, True, 0.5, lambda v: ge.expm(np.diag([1.0, -1.0]), v), ()),
    ("lie_derivative", "x", float, True, ge.lie_basis(3)[0],
     lambda v: ge.lie_derivative(PROFILE, G, v, 2), ("(..., 3, 3)", np.eye(2), np.ones(3))),
    ("harish_chandra_xi", "g", None, False, np.eye(3),
     lambda v: ge.harish_chandra_xi(ge.GroupElement(v), 10),
     ("(n, n)", np.stack([np.eye(3)] * 2))),
    ("weyl_ball_volume", "--R", float, False, 1.0, lambda v: ge.weyl_ball_volume(3, v), ()),
    ("volume_report", "--R", float, False, [2.0, 3.0, 4.0], lambda v: ge.volume_report(3, v),
     ()),
    ("fit_exponent", "ls", float, False, [1.0, 2.0, 4.0],
     lambda v: ge.fit_exponent(v, [1.0, 0.5, 0.25]), ("(*,)", np.ones((2, 3)), np.ones(0))),
    ("fit_exponent", "vals", float, False, [1.0, 0.5, 0.25],
     lambda v: ge.fit_exponent([1.0, 2.0, 4.0], v), ("(3,)", np.ones(4))),
    ("TruncatedSchurMultiplier", "symbol", complex, True, MATRIX, sc.TruncatedSchurMultiplier,
     ("(*, *)", np.ones(4), np.ones((0, 4)))),
    ("circulant_schur_bound", "symbol", complex, True, MATRIX, sc.circulant_schur_bound,
     ("(n, n)", np.ones((4, 3)))),
    ("schur_norm_lower_bound", "extra_starts", complex, True, MATRIX,
     lambda v: sc.schur_norm_lower_bound(MATRIX, 4.0, extra_starts=[v]),
     ("(4, 4)", np.ones((4, 3)))),
    ("schur_norm_lower_bound", "p", float, False, 4.0,
     lambda v: sc.schur_norm_lower_bound(MATRIX, v), ("()", np.ones(2))),
    ("interpolated_schur_bound", "p", float, False, 4.0,
     lambda v: sc.interpolated_schur_bound(MATRIX, v, 100.0), ("()", np.ones(2))),
    ("interpolated_schur_bound", "upper_inf", float, False, 100.0,
     lambda v: sc.interpolated_schur_bound(MATRIX, 4.0, v), ("()", np.ones(2))),
    ("circulant_lower_bound", "p", float, False, 4.0,
     lambda v: sc.circulant_lower_bound(np.arange(1.0, 9.0), v), ("()", np.ones(2))),
    ("circulant_lower_bound", "c", complex, True, np.arange(1.0, 9.0),
     lambda v: sc.circulant_lower_bound(v, 4.0), ("(*,)", np.ones((2, 4)), np.ones(0))),
    ("circulant_lower_bound", "warm", complex, True, np.ones(4),
     lambda v: sc.circulant_lower_bound(np.arange(1.0, 9.0), 4.0, warm=v),
     ("(*,)", np.ones((2, 4)), np.ones(0))),
    ("eigenvalue_table", "x", float, False, 0.5, lambda v: sp.eigenvalue_table(3, v, 3), ()),
    ("quadrature_table", "x", float, False, [0.1, 0.2], lambda v: sp.quadrature_table(3, v, 3),
     ()),
    ("schatten_derivative_sum", "x", float, False, 0.3,
     lambda v: sp.schatten_derivative_sum(5, 8.0, 0, v), ("()", np.ones(2))),
    ("schatten_derivative_sum", "p", float, False, 8.0,
     lambda v: sp.schatten_derivative_sum(5, v, 0, 0.3), ("()", np.ones(2))),
    ("RigidityExponents.compute", "p", float, False, 8.0,
     lambda v: sp.RigidityExponents.compute(5, v), ("()", np.ones(2))),
    ("spectrum_report", "--x", float, False, [0.5],
     lambda v: sp.spectrum_report(3, 4.0, 0, v, 4), ()),
    ("sphere_grid", "resolution_deg", float, False, 30.0, sp.sphere_grid, ("()", np.ones(2))),
    ("averaging_operator", "delta", float, False, 0.5,
     lambda v: sp.averaging_operator(v, lambda y: y[..., 2], NORTH), ("()", np.ones(2))),
    ("averaging_operator", "points", float, True, NORTH,
     lambda v: sp.averaging_operator(0.5, lambda y: y[..., 2], v),
     ("(..., 3)", np.ones((1, 2)), np.ones(()))),
    ("averaging_operator", "f(y)", float, False, np.ones((1, 360)),
     lambda v: sp.averaging_operator(0.5, returning(v), NORTH),
     ("(1, 360, ...)", np.ones(()), np.ones(360), np.ones((1, 359)))),
    ("RadialProfile.jet", "x", float, False, 2.0, lambda v: PROFILE.jet(v, 1), ()),
    ("EuclideanSymbol", "x", float, False, [[0.5]],
     lambda v: EuclideanSymbol(1, lambda x: x[..., 0])(v),
     ("(..., 1)", np.ones((1, 2)), np.ones(()))),
    ("shear_operator_norm", "x", float, False, 0.5, co.shear_operator_norm, ()),
    ("CompositionFrame.create", "r", float, False, 0.75,
     lambda v: co.CompositionFrame.create(3, v), ("()", np.ones(2))),
    ("so_n1_trace_coefficients", "r", float, False, 0.5,
     lambda v: co.so_n1_trace_coefficients(3, v), ("()", np.ones(2))),
    ("rotation_matrix", "delta", float, False, 0.5, lambda v: co.rotation_matrix(3, v),
     ("()", np.ones(2))),
    ("so_n1_embedded_matrix", "r", float, False, 0.5,
     lambda v: co.so_n1_embedded_matrix(3, v, 0.5), ("()", np.ones(2))),
    ("CompositionFrame.hs_of_delta", "delta", float, False, 0.5, FRAME.hs_of_delta, ()),
    ("CompositionFrame.opnorm_of_delta", "delta", float, False, 0.5, FRAME.opnorm_of_delta, ()),
    ("opnorm_coordinate", "x", float, False, FRAME.x_min,
     lambda v: co.opnorm_coordinate(FRAME, v), ()),
    ("DerivativeJet", "values", float, False, [1.0, 2.0, 3.0], co.DerivativeJet,
     ("(*,)", 2.0, [[1.0, 2.0]])),
    ("faa_di_bruno", "f_jet", None, True, [1.0, 2.0, 3.0],
     lambda v: co.faa_di_bruno(co.DerivativeJet(v), JET, 3), ()),
    ("faa_di_bruno", "phi_jet", None, True, [1.0, 2.0, 3.0],
     lambda v: co.faa_di_bruno(JET, co.DerivativeJet(v), 3), ()),
    ("composition_derivative_bound", "f_norm", float, False, 1.0,
     lambda v: co.composition_derivative_bound(v, [1.0], 1), ("()", np.ones(2))),
    ("composition_derivative_bound", "phi_jet_sups", float, False, [1.0, 2.0, 3.0],
     lambda v: co.composition_derivative_bound(1.0, v, 3), ("(*,)", np.ones((3, 1)))),
    ("GridSpec", "box_halfwidth", float, True, 8.0, lambda v: eu.GridSpec(v),
     ("()", np.ones(2))),
    ("SymbolFamily", "width", float, True, 0.5, lambda v: SymbolFamily("hm-bump", {"width": v}),
     ("()", np.ones(2))),
    ("SymbolFamily", "center", float, True, 1.0,
     lambda v: SymbolFamily("hm-bump", {"center": v}), ("()", np.ones(2))),
    ("frac_laplacian_constant", "eps", float, False, 0.5,
     lambda v: eu.frac_laplacian_constant(1, v), ("()", np.ones(2))),
    ("lp_partition_value", "xi", float, False, [0.6, 0.8],
     lambda v: eu.lp_partition_value(0, v), ()),
    ("sigma_partition_value", "xi", float, False, [0.6, 0.8],
     lambda v: eu.sigma_partition_value(1, 0, v), ()),
    ("local_inversion", "a", float, False, np.eye(2), eu.local_inversion,
     ("(n, n)", np.ones((2, 3)), np.ones(2))),
    ("sobolev_norm_w", "m(x)", complex, False, np.zeros(8),
     lambda v: eu.sobolev_norm_w(EuclideanSymbol(1, returning(v), inner_radius=1.0), 0.5,
                                 eu.GridSpec(box_points=8)), ("(8,)", np.zeros(()), np.zeros(9))),
    ("schur_infty_upper_bound", "s(x, y)", complex, False, np.ones((32, 32)),
     lambda v: eu.schur_infty_upper_bound(returning(v), 1, 1),
     ("(32, 32)", np.ones(()), np.ones((32, 32, 1)))),
    ("lie_derivative", "phi.of(u)", float, False, np.ones((3, 1, 1)),
     lambda v: ge.lie_derivative(RadialProfile(returning(v)), G, ge.lie_basis(3)[0], 2),
     ("(3, 1, 1)", np.ones((2, 1, 1)))),
    ("profile_rigidity_records", "profile(x)", float, False, np.ones(6),
     lambda v: ri.profile_rigidity_records(profile_bad_on((6,), v), 3, 10.0), ()),
    ("rigidity_witness", "profile(x)", complex, False, np.ones(8),
     lambda v: ri.rigidity_witness(profile_bad_on((8,), v), 3, 10.0, sections=2), ()),
    ("rigidity_report", "profile(x)", float, False, np.ones(1),
     lambda v: ri.rigidity_report(profile_bad_on((1,), v), 3, 10.0), ()),
]


def bad_values(good, dtype, finite, shape):
    """(kind, bad value, the message's tail) for one array: one value of each other shape
    in ``shape``, and each other value from a valid one."""
    out = [("shape" + "x".join(map(str, np.shape(v))), v,
            f"must be of shape {shape[0]}, got {np.shape(v)}") for v in shape[1:]]
    good = np.asarray(good, dtype=dtype or float)
    if dtype is not None:
        field = "real" if dtype is float else "complex"
        out.append(("string", np.full(good.shape, "a"), f"must be an array of {field} "
                                                         "numbers, got dtype <U1"))
        out.append(("ragged", RAGGED, f"must be an array of {field} numbers, got a ragged "
                                      "nesting"))
    if dtype is float:
        out.append(("complex", good + 1e-3j, "must be an array of real numbers, got dtype "
                                             "complex128"))
    if finite:
        for kind, bad in (("nan", np.nan), ("inf", np.inf)):
            value = good.copy()
            value.flat[0] = bad
            out.append((kind, value, "must be finite"))
    return out


ROWS = [(entry, name, value, tail) for entry, name, dtype, finite, good, call, shape in CASES
        for kind, value, tail in bad_values(good, dtype, finite, shape)]
IDS = [f"{entry}-{name}-{kind}" for entry, name, dtype, finite, good, call, shape in CASES
       for kind, _, _ in bad_values(good, dtype, finite, shape)]
CALLS = {(entry, name): call for entry, name, _, _, _, call, _ in CASES}


@pytest.mark.parametrize("entry, name, value, tail", ROWS, ids=IDS)
def test_a_bad_array_is_an_input_error_that_names_it(entry, name, value, tail):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning would drop an imaginary part
        with pytest.raises(InputError) as exc:
            CALLS[entry, name](value)
    assert str(exc.value) == f"{name} {tail}"


@pytest.mark.parametrize("entry, name, dtype, finite, good, call, shape", CASES,
                         ids=[f"{case[0]}-{case[1]}" for case in CASES])
def test_the_valid_value_passes(entry, name, dtype, finite, good, call, shape):
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


# (entry point, the value's name in the message, the interval it declares, as the message
# writes it, whether the value must be finite as well, the call with the value set to v)
SLACK = co._DOMAIN_SLACK
X_END = 1.0 + 1e-14  # sphere's tables take x in [-1, 1] up to 1e-14
INTERVALS = [
    ("schur_norm_lower_bound", "p", "[1.0, inf]", False,
     lambda v: sc.schur_norm_lower_bound(MATRIX, v, iterations=2)),
    ("interpolated_schur_bound", "p", "[1.0, inf]", False,
     lambda v: sc.interpolated_schur_bound(MATRIX, v, 100.0)),
    ("interpolated_schur_bound", "upper_inf", "[0.9375, inf]", False,  # the sup entry
     lambda v: sc.interpolated_schur_bound(MATRIX, 4.0, v)),
    ("circulant_lower_bound", "p", "[1.0, inf]", False,
     lambda v: sc.circulant_lower_bound(np.arange(1.0, 9.0), v)),
    ("eigenvalue_table", "x", f"[{-X_END!r}, {X_END!r}]", False,
     lambda v: sp.eigenvalue_table(3, v, 3)),
    ("quadrature_table", "x", f"[{-X_END!r}, {X_END!r}]", False,
     lambda v: sp.quadrature_table(3, v, 3)),
    ("RigidityExponents.compute", "p", f"({2.0 + 2.0 / 3!r}, inf]", False,
     lambda v: sp.RigidityExponents.compute(5, v)),
    ("schatten_derivative_sum", "p", "[1.0, inf)", False,
     lambda v: sp.schatten_derivative_sum(5, v, 0, 0.3)),
    ("schatten_derivative_sum", "x", "[-0.95, 0.95]", False,
     lambda v: sp.schatten_derivative_sum(5, 8.0, 0, v)),
    ("sphere_grid", "resolution_deg", "(0.0, inf)", False, sp.sphere_grid),
    ("averaging_operator", "delta", "[-1.0, 1.0]", False,
     lambda v: sp.averaging_operator(v, lambda y: y[..., 2], NORTH)),
    ("rotation_matrix", "delta", "[-1.0, 1.0]", False, lambda v: co.rotation_matrix(3, v)),
    ("CompositionFrame.create", "r", "(0.0, inf]", False,
     lambda v: co.CompositionFrame.create(3, v)),
    ("CompositionFrame.opnorm_of_delta", "delta", "[-1.0, 1.0]", False, FRAME.opnorm_of_delta),
    ("CompositionFrame.hs_of_delta", "delta", "[-1.0, 1.0]", False, FRAME.hs_of_delta),
    ("opnorm_coordinate", "x", f"[{FRAME.x_min * (1 - SLACK)!r}, {FRAME.x_max * (1 + SLACK)!r}]",
     False, lambda v: co.opnorm_coordinate(FRAME, v)),
    ("opnorm_coordinate_derivative", "x",
     f"[{FRAME.x_min * (1 - SLACK)!r}, {FRAME.x_max * (1 + SLACK)!r}]", False,
     lambda v: co.opnorm_coordinate_derivative(FRAME, 2, v)),
    ("so_n1_trace_coefficients", "r", "(0.0, inf]", False,
     lambda v: co.so_n1_trace_coefficients(3, v)),
    ("so_n1_embedded_matrix", "r", "[-inf, inf]", False,
     lambda v: co.so_n1_embedded_matrix(3, v, 0.5)),
    ("frac_laplacian_constant", "eps", "(0.0, 1.0)", False,
     lambda v: eu.frac_laplacian_constant(1, v)),
    ("GridSpec", "box_halfwidth", "(0.0, inf]", True, lambda v: eu.GridSpec(v)),
    ("weyl_ball_volume", "--R", "(0.0, inf)", False, lambda v: ge.weyl_ball_volume(3, v)),
    ("SymbolFamily", "width", "(0.0, inf]", True,
     lambda v: SymbolFamily("hm-bump", {"width": v})),
    ("SymbolFamily", "shift", "(-1.0, inf]", True,
     lambda v: SymbolFamily("radial-power", {"shift": v})),
    ("SymbolFamily.build_group_symbol", "shift", "(0.0, inf]", True,
     lambda v: SymbolFamily("radial-power", {"shift": v}).build_group_symbol()),
]


def interval_ends(text):
    """((lower end, closed), (upper end, closed)) of an interval as a message writes it."""
    lo, hi = text[1:-1].split(", ")
    return (float(lo), text[0] == "["), (float(hi), text[-1] == "]")


def outside_values(text, finite):
    """(kind, value) per value just outside the interval: one np.nextafter step past a closed
    end, an open end itself, and NaN where a NaN is not an InputError already."""
    out = []
    for kind, (end, closed), way in zip(("below", "above"), interval_ends(text), (-1, 1)):
        value = np.nextafter(end, way * np.inf) if closed else end
        if value != end or not closed:  # no float lies past a closed infinite end
            out.append((kind, float(value)))
    # with ``finite``, an inf or a NaN is an InputError before any interval is looked at
    out = [(kind, value) for kind, value in out if not (finite and math.isinf(value))]
    return out if finite else out + [("nan", math.nan)]


OUTSIDE = [(entry, name, text, call, value) for entry, name, text, finite, call in INTERVALS
           for _, value in outside_values(text, finite)]
OUTSIDE_IDS = [f"{entry}-{name}-{kind}" for entry, name, text, finite, call in INTERVALS
               for kind, _ in outside_values(text, finite)]


@pytest.mark.parametrize("entry, name, text, call, value", OUTSIDE, ids=OUTSIDE_IDS)
def test_a_value_outside_the_interval_is_a_domain_error_that_names_it(entry, name, text, call,
                                                                      value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as exc:
            call(value)
    assert str(exc.value) == f"{name} must lie in {text}, got {float(value)!r}"


CLOSED = [(entry, name, call, end) for entry, name, text, finite, call in INTERVALS
          for end, closed in interval_ends(text)
          if closed and not (finite and math.isinf(end))]


@pytest.mark.parametrize("entry, name, call, end", CLOSED,
                         ids=[f"{entry}-{name}-{end!r}" for entry, name, _, end in CLOSED])
def test_a_closed_end_is_accepted(entry, name, call, end):
    # an infinite end lies in the domain, and the value it gives may lie past the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            call(end)
        except RangeError:
            assert math.isinf(end)


def test_the_first_value_outside_is_named_and_a_scalar_is_compared_alike():
    with pytest.raises(DomainError, match=r"^r must lie in \(0.0, 1.0\], got -1.0$"):
        check_array("r", [[0.5, -1.0], [2.0, 1.0]], above=0.0, most=1.0)
    with pytest.raises(DomainError, match=r"^r must lie in \[-inf, 0.5\), got nan$"):
        check_array("r", np.array(math.nan), below=0.5)
    value = np.linspace(0.0, 1.0, 5)
    assert check_array("r", value, least=0.0, most=1.0) is value
    assert check_array("r", 1, least=1).dtype == float  # an int end or value is a float
