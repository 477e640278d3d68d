"""Exact complex arithmetic for test oracles.

A complex number is a pair ``(re, im)`` of Fractions, so sums and products
are exact, and moduli are compared squared, so no square root is taken.
"""

from fractions import Fraction

import numpy as np


def exact_coeffs(roots):
    """Ascending coefficients of prod (t - r) over roots given as (re, im)
    pairs of Fractions, computed exactly; each must be exact in float."""
    coeffs = [(Fraction(1), Fraction(0))]
    for rr, ri in roots:
        shifted = [(Fraction(0), Fraction(0))] + coeffs  # t * p
        for k, (cr, ci) in enumerate(coeffs):  # minus r * p
            sr, si = shifted[k]
            shifted[k] = (sr - (rr * cr - ri * ci), si - (rr * ci + ri * cr))
        coeffs = shifted
    out = np.array([complex(float(cr), float(ci)) for cr, ci in coeffs])
    exact = [(Fraction(z.real), Fraction(z.imag)) for z in out]
    assert exact == coeffs
    return out


def exact_abs2(coeffs, z):
    """``|p(z)|**2`` exactly, for ascending float coefficients and a float
    point, by Horner's rule on (re, im) pairs of Fractions."""
    z = complex(z)
    zr, zi = Fraction(z.real), Fraction(z.imag)
    pr = pi = Fraction(0)
    for c in reversed([complex(c) for c in coeffs]):
        pr, pi = pr * zr - pi * zi + Fraction(c.real), pr * zi + pi * zr + Fraction(c.imag)
    return pr * pr + pi * pi
