"""Reference values computed apart from whml, with mpmath and scipy.

Nothing here imports whml: each function restates the mathematics from
the paper (the frequency-zero equation, the invertibility theorem) or a
closed form, so a wrong program output cannot be mirrored in its check.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import special

ALPHA_C_TOL = 1e-13  # absolute; measured gap to the program is below 4e-16
RL_TOL = 1e-9        # measured gap below 1e-11 on the 2048-point grid
CAPUTO_TOL = 1e-5    # measured gap below 3e-6 (order-2 product integration)
SEMIGROUP_TOL = 1e-6
DUAL_ROUTE_TOL = 1e-3
FORM_TOL = 1e-3
MELLIN_TOL = 1e-4
CRITICAL_BAND = 1e-4  # the classifier's documented resolution in s

_ALPHA_C_CACHE: dict = {}


def alpha_c(alpha: float) -> float:
    """Critical offset: the root tau = 1 + alpha_c of
    Gamma(2a - tau) Gamma(tau + 1) sin(pi (a - tau)) = Gamma(2a) sin(pi a)
    in (1, 1 + a) for a < 1/2 and (2a, 1 + a) otherwise, at 40 digits."""
    if alpha in _ALPHA_C_CACHE:
        return _ALPHA_C_CACHE[alpha]
    with mp.workdps(40):
        a = mp.mpf(alpha)
        rhs = mp.gamma(2 * a) * mp.sin(mp.pi * a)

        def f(t):
            return mp.gamma(2 * a - t) * mp.gamma(t + 1) * mp.sin(mp.pi * (a - t)) - rhs

        left = mp.mpf(1) if alpha < 0.5 else 2 * a
        d = mp.mpf("1e-3")
        while True:
            lo, hi = left + d, 1 + a - d
            if lo < hi and f(lo) > 0 > f(hi):
                break
            d /= 10
            if d < mp.mpf("1e-36"):
                raise ArithmeticError(f"no sign change bracket for alpha={alpha}")
        root = mp.findroot(f, (lo, hi), solver="anderson")
        value = float(root - 1)
    _ALPHA_C_CACHE[alpha] = value
    return value


def critical_s(alpha: float, p: float) -> float:
    return 1.0 + 1.0 / p + alpha_c(alpha)


def theorem_verdict(alpha: float, p: float, s: float) -> dict:
    """Verdict fields of the invertibility theorem for an admissible triple
    strictly inside a window and off the critical smoothness."""
    if s < 1.0 + 1.0 / p:
        return dict(regime="LOW", fredholm=True, winding=0, index=0,
                    kernel_trivial=True, invertible=True)
    if s < critical_s(alpha, p):
        return dict(regime="HIGH", fredholm=True, winding=-1, index=0,
                    kernel_trivial=True, invertible=True)
    return dict(regime="HIGH", fredholm=True, winding=0, index=-1,
                kernel_trivial=True, invertible=False)


def loop_winding(alpha: float, p: float, s: float) -> int:
    """Winding of the full half-line symbol loop: the classified winding,
    which already equals the loop's (the boundary condition shifts only the
    index)."""
    return theorem_verdict(alpha, p, s)["winding"]


def rl_x2_exp(x: np.ndarray, gamma: float) -> np.ndarray:
    """Riemann-Liouville integral of x^2 e^-x:
    x^(gamma+2) * 2/Gamma(gamma+3) * 1F1(3; gamma+3; -x)."""
    x = np.asarray(x, dtype=float)
    return x ** (gamma + 2.0) * 2.0 / math.gamma(gamma + 3.0) * special.hyp1f1(3.0, gamma + 3.0, -x)


def caputo_x2_exp(x: float, gamma: float) -> float:
    """Caputo derivative of x^2 e^-x by mpmath quadrature of
    (1/Gamma(n - gamma)) * integral_0^x u^(n)(y) (x - y)^(n - gamma - 1) dy."""
    n = 1 if gamma < 1.0 else 2
    with mp.workdps(30):
        if n == 1:
            def du(y):
                return (2 * y - y * y) * mp.exp(-y)
        else:
            def du(y):
                return (2 - 4 * y + y * y) * mp.exp(-y)
        xm = mp.mpf(x)
        val = mp.quad(lambda y: du(y) * (xm - y) ** (n - gamma - 1), [0, xm])
        return float(val / mp.gamma(n - gamma))
