"""Closed-form factors of the generalized symbol in both regularity regimes.

Two Wiener-Hopf factors and one Mellin factor make up the whole symbol: a
unit-modulus piece c1, a vanishing-at-zero piece c2, and a beta-function
multiplier b2, which the contour reads pre-multiplied (gamma1_mellin_term).
On the boundary segment of the contour the half-line origin replaces the
two one-sided limits of c1/c2 by circular-arc interpolants whose closed
form is a ratio of sines (c1p_inf, c2p_inf); those are computed in a
cosh-free rearrangement that stays finite for arbitrarily large
frequencies.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature as q
from .errors import DomainError
from .specfun import complex_beta, principal_power, scalar_or_array

__all__ = [
    "Regime",
    "SpectralParams",
    "wh_c1",
    "wh_c2",
    "c1p_inf",
    "c2p_inf",
    "gamma1_mellin_term",
    "sine_ratio",
    "beta_term",
    "mellin_symbol_residual",
]


class Regime(enum.Enum):
    LOW = 1   # m = 1
    HIGH = 2  # m = 2


@dataclass(frozen=True)
class SpectralParams:
    """Admissible parameter triple (alpha, p, s) with its regularity regime.

    LOW:  0 < alpha < 1/2 and 1/p   < s < 1 + 1/p  (m = 1)
    HIGH: 0 < alpha < 1   and 1+1/p < s < 2 + 1/p  (m = 2)

    The boundary s = 1 + 1/p belongs to neither window and is rejected, so
    the regime is always determined by the window the parameters sit in.
    """

    alpha: float
    p: float
    s: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise DomainError("SpectralParams requires 0 < alpha < 1")
        if not (1.0 < self.p < math.inf):
            raise DomainError("SpectralParams requires 1 < p < infinity")
        inv_p = 1.0 / self.p
        if inv_p < self.s < 1.0 + inv_p:
            if not (self.alpha < 0.5):
                raise DomainError("low regularity requires alpha < 1/2")
        elif 1.0 + inv_p < self.s < 2.0 + inv_p:
            pass
        else:
            raise DomainError(
                "s must lie strictly inside (1/p, 1+1/p) or (1+1/p, 2+1/p)"
            )

    @property
    def regime(self) -> Regime:
        return Regime.LOW if self.s < 1.0 + 1.0 / self.p else Regime.HIGH

    @property
    def m(self) -> int:
        return self.regime.value

    @property
    def tau(self) -> float:
        return self.s - 1.0 / self.p

    @property
    def nu(self) -> float:
        return self.m - self.s + self.alpha

    @property
    def nu_prime(self) -> float:
        return self.m - self.s + 2.0 * self.alpha

    @property
    def p_conj(self) -> float:
        """Hoelder conjugate, 1/p + 1/p' = 1."""
        return self.p / (self.p - 1.0)

    @property
    def beta_sigma(self) -> float:
        """First beta argument at xi = 0: s - 2*alpha + 1/p'."""
        return self.s - 2.0 * self.alpha + 1.0 - 1.0 / self.p


def _wh_factor(xi, sp: SpectralParams, lead, at_plus_inf: complex, at_minus_inf: complex):
    """lead(xi) (xi-i)^(s-2a-m) (xi+i)^(m-s), with the given limits at +inf
    and -inf.  A scalar is evaluated as a one-element array, so it equals
    the array call bit for bit.  A nan xi has no limit and is refused."""
    a, s, m = sp.alpha, sp.s, sp.m
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    if np.isnan(x).any():
        raise DomainError("Wiener-Hopf factor needs xi that is not nan")
    finite = np.isfinite(x)
    xf = np.where(finite, x, 0.0)
    val = (
        lead(xf)
        * principal_power(xf - 1j, s - 2.0 * a - m)
        * principal_power(xf + 1j, m - s)
    )
    out = np.where(finite, val, np.where(x > 0.0, at_plus_inf, at_minus_inf))
    return scalar_or_array(out.reshape(np.shape(xi)))


def wh_c1(xi, sp: SpectralParams):
    """Unit-modulus Wiener-Hopf factor
    (1+xi^2)^a (xi-i)^(s-2a-m) (xi+i)^(m-s).

    Limits: 1 at +inf, e^(2 pi nu i) at -inf, e^(pi nu i) from both sides
    of 0 (the single discontinuity sits at infinity).  Accepts arrays.
    """
    return _wh_factor(xi, sp, lambda x: principal_power(1.0 + x * x, sp.alpha),
                      1.0 + 0j, cmath.exp(2j * math.pi * sp.nu))


def wh_c2(xi, sp: SpectralParams):
    """Vanishing-at-zero Wiener-Hopf factor
    (-i xi)^(2a) (xi-i)^(s-2a-m) (xi+i)^(m-s).

    Limits: 0 from both sides of 0, e^(-i pi a) at +inf and
    e^(-i pi a) e^(2 pi i nu') at -inf.  Accepts arrays.
    """
    a = sp.alpha
    return _wh_factor(xi, sp, lambda x: principal_power(-1j * x, 2.0 * a),
                      cmath.exp(-1j * math.pi * a),
                      cmath.exp(1j * math.pi * (2.0 * sp.nu_prime - a)))


def sine_ratio(a, b, xi):
    """sin(pi(a - i xi)) / sin(pi(b - i xi)) via the tanh rearrangement;
    arrays broadcast.

    Dividing through by cosh(pi xi) removes the overflowing factor exactly:
    the ratio equals (sin pi a - i cos pi a tanh pi xi) /
    (sin pi b - i cos pi b tanh pi xi) for every real xi.  A pole
    (sin pi b = 0 at xi = 0) gives a non-finite entry, not an exception.
    """
    t = np.tanh(math.pi * np.asarray(xi, dtype=float))
    a = np.asarray(a)
    b = np.asarray(b)
    num = np.sin(math.pi * a) - 1j * np.cos(math.pi * a) * t
    den = np.sin(math.pi * b) - 1j * np.cos(math.pi * b) * t
    return num / den


def beta_term(alpha, sigma, xi):
    """(sin pi a / pi) * B(sigma + i xi, 2a); arrays broadcast."""
    z = np.asarray(sigma, dtype=float) + 1j * np.asarray(xi, dtype=float)
    return np.sin(math.pi * np.asarray(alpha)) / math.pi * complex_beta(z, 2.0 * np.asarray(alpha))


def c1p_inf(xi, sp: SpectralParams):
    """Boundary-segment value of the c1 factor:
    e^(i pi nu) sin(pi(1/p + nu - i xi)) / sin(pi(1/p - i xi));
    approaches c1(-inf) as xi -> +inf and c1(+inf) as xi -> -inf.
    The denominator never vanishes, since sin(pi/p) > 0.  Accepts arrays.
    """
    nu = sp.nu
    return scalar_or_array(cmath.exp(1j * math.pi * nu) * sine_ratio(1.0 / sp.p + nu, 1.0 / sp.p, xi))


def c2p_inf(xi, sp: SpectralParams):
    """Boundary-segment value of the c2 factor, with the extra e^(-i pi a)
    phase carried by its one-sided limits.  Accepts arrays."""
    nu_p = sp.nu_prime
    return scalar_or_array(cmath.exp(1j * math.pi * (nu_p - sp.alpha))
                 * sine_ratio(1.0 / sp.p + nu_p, 1.0 / sp.p, xi))


def gamma1_mellin_term(xi, sp: SpectralParams):
    """The pre-multiplied Mellin coefficient on the boundary segment:
    -(sin pi a / pi) * B(s - 2a + 1/p' + i xi, 2a).  Accepts arrays.

    Exposing the product (rather than its two factors) keeps the
    Kummer-profile origin value out of the contour code entirely.
    """
    return scalar_or_array(-beta_term(sp.alpha, sp.beta_sigma, xi))


def mellin_symbol_residual(gamma: float, rho: float, y: float, p: float) -> float:
    """Defect between the numerically Mellin-transformed convolution kernel
    K_{gamma,rho}(t) = 1 / (Gamma(gamma) t^(rho+gamma) (t-1)^(1-gamma)) on
    t >= 1 and its closed-form symbol B(rho + 1/p' + i y, gamma)/Gamma(gamma).

    After w = t - 1 the transform is the beta-type integral
    (1/Gamma(gamma)) * integral_0^inf w^(gamma-1) (1+w)^(-c) dw with
    c = rho + gamma + 1/p' + i y.  The endpoint power is absorbed by a
    substitution, the mid-range is adaptive, and the algebraic tail is
    summed from the convergent binomial expansion of (1 + 1/w)^(-c).
    """
    if gamma <= 0.0:
        raise DomainError("mellin_symbol_residual requires gamma > 0")
    if not (1.0 < p < math.inf):
        raise DomainError("mellin_symbol_residual requires 1 < p < infinity")
    inv_p_conj = 1.0 - 1.0 / p
    if rho <= 1.0 / p - 1.0:
        raise DomainError("mellin_symbol_residual requires rho > 1/p - 1")
    c = complex(rho + gamma + inv_p_conj, y)

    kappa = 1.0 / gamma

    def head(t):
        w = t ** kappa
        return kappa * (1.0 + w) ** (-c)

    head_val = q.quad_complex(head, 0.0, 1.0, epsabs=1e-13, epsrel=1e-12)

    cut = max(10.0, 6.0 * abs(c))

    def body(w):
        return w ** (gamma - 1.0) * (1.0 + w) ** (-c)

    body_val = q.quad_complex(body, 1.0, cut, epsabs=1e-13, epsrel=1e-12, limit=400)

    # tail: (1+w)^(-c) = w^(-c) sum_k binom(-c, k) w^(-k), integrated term by term
    tail_val = 0j
    coeff = 1.0 + 0j
    for k in range(60):
        exponent = c + k - gamma
        term = coeff * cut ** complex(gamma - c.real - k, -c.imag) / exponent
        tail_val += term
        if abs(term) < 1e-16 * max(1.0, abs(tail_val)):
            break
        coeff *= -(c + k) / (k + 1.0)

    transform = (head_val + body_val + tail_val) / math.gamma(gamma)
    closed = complex_beta(complex(rho + inv_p_conj, y), gamma) / math.gamma(gamma)
    return abs(transform - closed)
