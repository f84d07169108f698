"""Thin wrappers around QUADPACK with explicit failure reporting.

scipy.integrate.quad is the adaptive Gauss-Kronrod panel engine; these
wrappers turn its silent warnings into AccuracyError and centralise the
split-at-a-finite-point idiom used for integrals over (0, inf) whose
integrand needs breakpoint hints.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import AccuracyError

_DEFAULT_LIMIT = 200


def quad(f, a, b, *, epsabs=1e-12, epsrel=1e-10, points=None, weight=None,
         wvar=None, limit=_DEFAULT_LIMIT, slack=100.0) -> float:
    """Adaptive quadrature of ``f`` over (a, b); raises on non-convergence.

    QUADPACK's warnings are demoted to data: the returned error estimate is
    judged against the requested tolerance (with slack for its pessimism on
    piecewise-smooth integrands) and failure becomes AccuracyError.
    """
    from scipy import integrate as _integrate  # on first use, not at start-up
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", _integrate.IntegrationWarning)
        out = _integrate.quad(
            f, a, b, epsabs=epsabs, epsrel=epsrel, points=points,
            weight=weight, wvar=wvar, limit=limit, full_output=1,
        )
    val, err = out[0], out[1]
    if not np.isfinite(val):
        raise AccuracyError(f"quadrature returned a non-finite value on ({a}, {b})")
    tol = max(epsabs, epsrel * abs(val))
    if err > slack * max(tol, 1e-300):
        raise AccuracyError(
            f"quadrature error estimate {err:.3e} exceeds tolerance on ({a}, {b})"
        )
    return val


def quad_split_inf(f, a, split, *, epsabs=1e-12, epsrel=1e-10, points=None,
                   limit=_DEFAULT_LIMIT) -> float:
    """Integral over (a, inf) split at a finite breakpoint.

    QUADPACK rejects interior breakpoint hints on infinite ranges, so the
    finite head (which carries the structure) and the smooth tail are done
    separately.
    """
    if split <= a:
        return quad(f, a, np.inf, epsabs=epsabs, epsrel=epsrel, limit=limit)
    head = quad(f, a, split, epsabs=epsabs, epsrel=epsrel, points=points, limit=limit)
    tail = quad(f, split, np.inf, epsabs=epsabs, epsrel=epsrel, limit=limit)
    return head + tail


def quad_complex(f, a, b, **kw) -> complex:
    """Quadrature of a complex-valued integrand, component-wise."""
    re = quad(lambda t: f(t).real, a, b, **kw)
    im = quad(lambda t: f(t).imag, a, b, **kw)
    return complex(re, im)
