"""Exact arithmetic on the floats the library computes with, for oracles.

Every finite double is a rational, so a matrix of doubles is a matrix of
complex rationals, held here as rows of ``(re, im)`` pairs of
``Fraction``.  Products, traces and squared Frobenius norms are then exact,
and a verdict of the library's form ``residual <= tol * max(1, scale)``
(``linalg._within``, with Frobenius norms on both sides) is decided exactly
by squares, ``residual**2 <= tol**2 * max(1, scale**2)``: no square root is
taken.  Standard library only; an 8 x 8 product takes about 15 ms.
"""

import math
from fractions import Fraction

import numpy as np

EPS = Fraction(np.finfo(np.float64).eps)


def matrix(a) -> list:
    """The complex rational matrix of a complex or real 2-d array, or of an
    operator's matrix."""
    a = np.asarray(getattr(a, "matrix", a), dtype=np.complex128)
    return [[(Fraction(z.real), Fraction(z.imag)) for z in row] for row in a.tolist()]


def indicator(row) -> list:
    """The diagonal matrix of a Boolean event's indicator row, in ints,
    which the functions below take as they take ``Fraction``s."""
    return [[(int(row[i]) if i == j else 0, 0) for j in range(len(row))]
            for i in range(len(row))]


def product(a: list, b: list) -> list:
    cols = list(zip(*b))
    return [[(sum(x[0] * y[0] - x[1] * y[1] for x, y in zip(row, col)),
              sum(x[0] * y[1] + x[1] * y[0] for x, y in zip(row, col)))
             for col in cols] for row in a]


def difference(a: list, b: list) -> list:
    return [[(x[0] - y[0], x[1] - y[1]) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def trace(a: list) -> tuple:
    return sum(a[i][i][0] for i in range(len(a))), sum(a[i][i][1] for i in range(len(a)))


def real_trace_of_product(a: list, b: list) -> Fraction:
    """Re tr(AB), from the d**2 products it reads."""
    n = len(a)
    return sum(a[i][j][0] * b[j][i][0] - a[i][j][1] * b[j][i][1]
               for i in range(n) for j in range(n))


def frobenius_squared(a: list) -> Fraction:
    return sum(x * x + y * y for row in a for x, y in row)


def within(residual_squared: Fraction, tol: float, scale_squared: Fraction) -> bool:
    """The exact ``residual <= tol * max(1, scale)``, by squares."""
    return residual_squared <= Fraction(tol) ** 2 * max(Fraction(1), scale_squared)


def margin(residual_squared: Fraction, tol: float, scale_squared: Fraction) -> float:
    """``residual / (tol * max(1, scale))`` of the exact values, rounded
    to a double; inf for a bound of 0 under a nonzero residual."""
    bound_squared = Fraction(tol) ** 2 * max(Fraction(1), scale_squared)
    if bound_squared == 0:
        return 0.0 if residual_squared == 0 else math.inf
    return math.sqrt(residual_squared / bound_squared)


def near(value: float, exact_squared: Fraction, error: float) -> bool:
    """Whether ``value`` >= 0 is within ``error`` of the square root of
    ``exact_squared``, decided by squares."""
    low, high = Fraction(max(0.0, value - error)), Fraction(value + error)
    return low * low <= exact_squared <= high * high


def ulps(value: float, exact: Fraction) -> Fraction:
    """``|value - exact|`` in units of the last place of the double nearest
    to ``exact``."""
    return abs(Fraction(value) - exact) / Fraction(math.ulp(float(exact)))
