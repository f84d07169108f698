"""Complex-argument special functions used by the symbol and kernel formulas.

Everything here follows one branch convention: arguments of complex numbers
live in (-pi, pi], with the cut along the negative real axis.  All fractional
powers of complex bases must go through :func:`principal_power` so that the
convention holds globally.  The Wiener-Hopf factors' closed forms in
`symbols` need none, and principal_power is their independent oracle.

Beta is assembled in log space from scipy.special.loggamma (principal
branch) to dodge overflow; it raises :class:`PoleError` within 1e-13 of a
non-positive integer and ``AccuracyOverflow`` on a non-finite result.
:class:`PartialBeta` is the same formula for a fixed real b > 0 (or an
array of them) and a first argument in the right half-plane, with
loggamma(b) computed once and no pole scan; its ``log`` method is log B
itself, unchecked.
Principal powers, beta and the real modified Bessel function K_nu take
scalars or arrays and return the same shape; a scalar call is a view of the
array code.  K_nu and the confluent hypergeometric U are delegated to
scipy.special behind the domain windows this package actually needs.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

from .errors import DomainError, GammaOverflowError, PoleError

__all__ = [
    "principal_power",
    "complex_beta",
    "PartialBeta",
    "bessel_k",
    "kummer_u",
]

_POLE_TOL = 1e-13


def scalar_or_array(out):
    """Python complex for a 0-d result, the array otherwise: the scalar view
    of an array-first formula."""
    return complex(out) if np.ndim(out) == 0 else out


class AccuracyOverflow(GammaOverflowError):
    """A finite-input evaluation escaped to inf/nan."""


def _check_finite(value, what: str):
    if not np.isfinite(value).all():
        raise AccuracyOverflow(f"{what} produced a non-finite value")
    return value


def principal_power(z, gamma: float):
    """z**gamma with the principal branch, z^g := exp(g*(log|z| + i*arg z)).

    arg z is taken in (-pi, pi]; negative reals map to +pi even with -0.0
    parts (adding 0.0 turns an imaginary part of -0.0 into +0.0).  z = 0
    returns 0 for gamma > 0 and raises for gamma <= 0.  Accepts arrays.
    """
    za = np.asarray(z, dtype=complex)
    zero = za == 0
    if gamma <= 0 and zero.any():
        raise DomainError("0 cannot be raised to a non-positive power")
    zb = np.where(zero, 1.0, za)
    log = np.log(np.abs(zb)) + 1j * np.arctan2(zb.imag + 0.0, zb.real)
    out = np.where(zero, 0j, _check_finite(np.exp(gamma * log), "principal_power"))
    return scalar_or_array(out)


def _near_pole(*zs) -> bool:
    """True if any entry of the arrays lies within _POLE_TOL of a
    non-positive integer (the poles of gamma and log-gamma)."""
    za = np.concatenate([z.ravel() for z in zs])
    re = za.real
    dist = np.maximum(np.abs(re - np.round(re)), np.abs(za.imag))
    return bool(((dist < _POLE_TOL) & (re < 0.5)).any())


def _log_beta(a, log_gamma_b, a_plus_b):
    """log B(a, b) = loggamma(a) + loggamma(b) - loggamma(a + b), given
    loggamma(b) and a + b; not checked for finiteness."""
    return _sp.loggamma(a) + log_gamma_b - _sp.loggamma(a_plus_b)


def _log_space_beta(a, log_gamma_b, a_plus_b):
    """B(a, b) = exp(log B(a, b)), refused where log B is not finite."""
    return np.exp(_check_finite(_log_beta(a, log_gamma_b, a_plus_b), "complex_beta"))


def complex_beta(a, b):
    """Beta function B(a, b) = Gamma(a)Gamma(b)/Gamma(a+b), via log-gamma."""
    aa = np.asarray(a, dtype=complex)
    bb = np.asarray(b, dtype=complex)
    ab = aa + bb
    if _near_pole(aa, bb, ab):
        raise PoleError("beta pole: argument or argument sum at a non-positive integer")
    return scalar_or_array(_log_space_beta(aa, _sp.loggamma(bb), ab))


class PartialBeta:
    """a -> B(a, b) for a real b > 0, or an array of them, on complex arrays
    a with Re a > 0 that broadcast against b: complex_beta's log-space
    formula with loggamma(b) computed once.  No gamma factor has a pole
    there, so there is no pole scan; the caller guarantees Re a > 0.  Equal
    to complex_beta(a, b) bit for bit.  `log` is log B(a, b) itself, with
    no finiteness check, for callers whose arguments keep it finite."""

    def __init__(self, b):
        if not (np.asarray(b) > 0.0).all():  # nan fails too
            raise DomainError("PartialBeta requires b > 0")
        self._b = np.asarray(b, dtype=complex)
        self._log_gamma_b = _sp.loggamma(self._b)

    def __call__(self, a):
        return _log_space_beta(a, self._log_gamma_b, a + self._b)

    def log(self, a):
        return _log_beta(a, self._log_gamma_b, a + self._b)


def bessel_k(nu: float, x):
    """Modified Bessel function of the second kind K_nu(x), x > 0.

    Supported for |nu| <= 2 (K is even in the order).  Accepts arrays; every
    entry must be positive and give a finite value, and a 0-d input returns
    a float.  A float x skips the array conversion (kv runs the same loop).
    scipy's kv is off 40-digit mpmath by 5.9e-14 relative at (nu, x) =
    (0.55, 2.0), 2.2e-14 at (1.45, 2.0) and 1.6e-16 at (0.55, 12.0).
    """
    if abs(nu) > 2.0:
        raise DomainError("bessel_k supports |nu| <= 2")
    xa = x if isinstance(x, float) else np.asarray(x, dtype=float)
    val = _sp.kv(nu, xa)
    # K is inf at x = 0 and nan below it or at nan, so one finiteness test
    # of the result guards the domain as well
    if not (math.isfinite(val) if val.ndim == 0 else np.isfinite(val).all()):
        if not np.all(xa > 0.0):
            raise DomainError("bessel_k requires x > 0")
        raise AccuracyOverflow("bessel_k produced a non-finite value")
    return float(val) if val.ndim == 0 else val


def kummer_u(a: float, b: float, x: float) -> float:
    """Confluent hypergeometric function U(a, b, x) on the window this
    package uses: a > 0, 0 < b < 3, x > 0 (b = 1, 2 take the logarithmic
    limit form)."""
    if not (a > 0.0):
        raise DomainError("kummer_u requires a > 0")
    if not (0.0 < b < 3.0):
        raise DomainError("kummer_u requires 0 < b < 3")
    if not (x > 0.0):
        raise DomainError("kummer_u requires x > 0")
    val = _sp.hyperu(a, b, x)
    if not np.isfinite(val):
        raise AccuracyOverflow("kummer_u escaped to a non-finite value")
    return float(val)
