"""Truncated Taylor arithmetic (Griewank & Walther, Evaluating Derivatives, 2nd ed., SIAM 2008,
ch. 13) on jets [u_0, ..., u_K], u_k = u^(k)(s) / k! for a function u of one variable s, each
coefficient an array or a float.  Order 0 runs the plain evaluator's float operations, so a
value does not depend on K.  The distance to the identity and the radial profiles are written
once in it, and their composition gives the exact Lie derivatives of a lifted symbol.
"""

from __future__ import annotations

import operator
from itertools import accumulate

import numpy as np

MAX_ORDER = 170  # the largest order whose factorial is a float: 171! exceeds the float range


def variable(x0, order: int) -> list:
    """Jet of the variable itself at x0: [x0, 1, 0, ..., 0]."""
    return [x0, 1.0, *[0.0] * (order - 1)][:order + 1]


def mul(u: list, v: list) -> list:
    return [u[0] * v[0]] + [sum(u[j] * v[k - j] for j in range(k + 1)) for k in range(1, len(u))]


def power(u: list, a: float) -> list:
    w = [u[0] ** a]
    for k in range(1, len(u)):
        w.append(sum(((a + 1.0) * j / k - 1.0) * u[j] * w[k - j] for j in range(1, k + 1)) / u[0])
    return w


def exp(u: list) -> list:
    w = [np.exp(u[0])]
    for k in range(1, len(u)):
        w.append(sum(j * u[j] * w[k - j] for j in range(1, k + 1)) / k)
    return w


def log(u: list) -> list:
    w = [np.log(u[0])]
    for k in range(1, len(u)):
        w.append((u[k] - sum(j * w[j] * u[k - j] for j in range(1, k)) / k) / u[0])
    return w


def factorials(order: int) -> np.ndarray:
    """[0!, 1!, ..., order!] as float products, the package's one factorial, which turns a
    jet's u_k into the derivative k! u_k: inf from 171!, past the float range (a float
    product overflows to inf without a warning)."""
    return np.array(list(accumulate(range(1, order + 1), operator.mul, initial=1.0)))
