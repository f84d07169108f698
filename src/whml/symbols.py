"""Closed-form factors of the generalized symbol in both regularity regimes.

Two Wiener-Hopf factors and one Mellin factor make up the whole symbol: a
unit-modulus piece c1, a vanishing-at-zero piece c2, and a beta-function
multiplier b2, which the contour reads pre-multiplied (gamma1_mellin_term).
On the boundary segment of the contour the half-line origin replaces the
two one-sided limits of c1/c2 by circular-arc interpolants whose closed
form is a ratio of sines (c1p_inf, c2p_inf); those are computed in a
cosh-free rearrangement that stays finite for arbitrarily large
frequencies.

The loop reads the symbol through one LoopSymbol per triple
(SpectralParams.loop_symbol): the boundary value and the unit factor as
array functions of xi, with every xi-free constant computed once, equal bit
for bit to the composition of the public factors above, which stay as its
oracles.  Each of the two has one kernel, whose inputs are the parts that
depend on xi alone (boundary_tables: tanh(pi xi) and i xi; unit_tables:
the log-space bases of 1 + xi^2 and xi -+ i), so a caller that evaluates
many triples on one set of xi, as the loop's base grid does, computes
those once.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import quadrature as q
from .errors import DomainError, PoleError
from .specfun import (PartialBeta, _check_finite, complex_beta, nonzero_power,
                      principal_log, principal_power, scalar_or_array)

__all__ = [
    "Regime",
    "SpectralParams",
    "LoopSymbol",
    "boundary_tables",
    "unit_tables",
    "XI_SATURATION",
    "wh_c1",
    "wh_c2",
    "c1p_inf",
    "c2p_inf",
    "gamma1_mellin_term",
    "sine_ratio",
    "beta_term",
    "mellin_symbol_residual",
]


# beyond this |xi| the loop takes the symbol's one-sided limits at infinity
XI_SATURATION = 1e8


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

    @functools.cached_property
    def loop_symbol(self) -> "LoopSymbol":
        """The symbol's loop evaluator, with its constants computed once."""
        return LoopSymbol(self)


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
    # xi -+ i never vanishes at real xi
    val = (
        lead(xf)
        * nonzero_power(xf - 1j, s - 2.0 * a - m)
        * nonzero_power(xf + 1j, m - s)
    )
    out = np.where(finite, val, np.where(x > 0.0, at_plus_inf, at_minus_inf))
    return scalar_or_array(out.reshape(np.shape(xi)))


def wh_c1(xi, sp: SpectralParams):
    """Unit-modulus Wiener-Hopf factor
    (1+xi^2)^a (xi-i)^(s-2a-m) (xi+i)^(m-s).

    Limits: 1 at +inf, e^(2 pi nu i) at -inf, e^(pi nu i) from both sides
    of 0 (the single discontinuity sits at infinity).  Accepts arrays.
    """
    return _wh_factor(xi, sp, lambda x: nonzero_power(1.0 + x * x, sp.alpha),
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


def _sine_terms(a):
    """sin(pi a) and i cos(pi a), the xi-free parts of sine_ratio's
    numerator (or denominator) sin(pi a) - i cos(pi a) tanh(pi xi)."""
    a = np.asarray(a)
    return np.sin(math.pi * a), 1j * np.cos(math.pi * a)


def sine_ratio(a, b, xi):
    """sin(pi(a - i xi)) / sin(pi(b - i xi)) via the tanh rearrangement;
    arrays broadcast.

    Dividing through by cosh(pi xi) removes the overflowing factor exactly:
    the ratio equals (sin pi a - i cos pi a tanh pi xi) /
    (sin pi b - i cos pi b tanh pi xi) for every real xi.  A pole
    (sin pi b = 0 at xi = 0) gives a non-finite entry, not an exception.
    """
    t = np.tanh(math.pi * np.asarray(xi, dtype=float))
    sin_a, icos_a = _sine_terms(a)
    sin_b, icos_b = _sine_terms(b)
    return (sin_a - icos_a * t) / (sin_b - icos_b * t)


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


def boundary_tables(xi: np.ndarray) -> tuple:
    """The parts of LoopSymbol.boundary at a float array of xi that depend
    on xi alone: the masks |xi| <= XI_SATURATION and xi > 0, and
    tanh(pi xi) and i xi on the points within the saturation."""
    inner = np.abs(xi) <= XI_SATURATION
    x = xi if inner.all() else xi[inner]
    return inner, xi > 0.0, np.tanh(math.pi * x), 1j * x


def unit_tables(xi: np.ndarray) -> tuple:
    """The parts of LoopSymbol.unit at a float array of xi that depend on
    xi alone: the masks of finite xi and of xi > 0, and the log-space bases
    principal_log of 1 + xi^2, xi - i and xi + i, with 0 in place of each
    non-finite xi."""
    finite = np.isfinite(xi)
    xf = np.where(finite, xi, 0.0)
    return (finite, xi > 0.0, principal_log(1.0 + xf * xf), principal_log(xf - 1j),
            principal_log(xf + 1j))


class LoopSymbol:
    """The generalized symbol of one triple as the loop reads it, as two
    array functions of real xi: `boundary` on the boundary segment and
    `unit`, the unit-modulus factor wh_c1, on the five others.

    `boundary` is c1p_inf + gamma1_mellin_term * c2p_inf for |xi| <=
    XI_SATURATION and the one-sided limit of wh_c1 beyond (e^(2 pi i nu)
    for xi > 0, 1 for xi < 0).  Everything free of xi is computed once
    here: the sine terms of 1/p, 1/p + nu and 1/p + nu', the phases
    e^(i pi nu) and e^(i pi (nu' - a)), loggamma(2a), sin(pi a)/pi, sigma
    and the exponents of wh_c1.  Each factor has one kernel, which takes
    the xi-only arrays (boundary_tables, unit_tables) as inputs, so a
    caller that keeps those arrays for a fixed set of xi, as the loop's
    base grid does, pays only the triple's own work: one denominator
    shared by the two sine ratios, two loggamma calls and one exp per
    boundary point, three complex exps per unit point.  The kernels use the
    same floating-point operations in the same order as the composition of
    the public factors, so they equal it bit for bit.

    The beta pole scan of complex_beta becomes one check: the first
    argument sigma + i xi has sigma = beta_sigma > 0 and the second is 2a
    in (0, 2).  The kernels make no finiteness check: with
    Re(sigma + i xi) > 0 and |xi| <= XI_SATURATION every loggamma, power
    and sine ratio here is finite.  `unit` checks its result, since its xi
    may lie beyond the saturation.
    """

    def __init__(self, sp: SpectralParams):
        if not sp.beta_sigma > 0.0:
            raise PoleError(f"beta argument sigma = {sp.beta_sigma!r} is not positive")
        inv_p, nu, nu_p, a, s, m = 1.0 / sp.p, sp.nu, sp.nu_prime, sp.alpha, sp.s, sp.m
        self._den = _sine_terms(inv_p)
        self._c1_num = _sine_terms(inv_p + nu)
        self._c2_num = _sine_terms(inv_p + nu_p)
        self._c1_phase = cmath.exp(1j * math.pi * nu)
        self._c2_phase = cmath.exp(1j * math.pi * (nu_p - a))
        self._sigma = np.asarray(sp.beta_sigma, dtype=float)
        self._beta = PartialBeta(2.0 * np.asarray(a))
        self._beta_scale = np.sin(math.pi * np.asarray(a)) / math.pi
        self._powers = (a, s - 2.0 * a - m, m - s)
        self._c1_at_minus_inf = cmath.exp(2j * math.pi * nu)

    def boundary(self, xi: np.ndarray) -> np.ndarray:
        """The symbol on the boundary segment at a float array of xi."""
        return self.boundary_values(*boundary_tables(xi))

    def boundary_values(self, inner, positive, tanh_pi_xi, i_xi) -> np.ndarray:
        """`boundary` from the arrays of boundary_tables."""
        if inner.all():
            return self.boundary_kernel(tanh_pi_xi, i_xi)
        out = np.where(positive, self._c1_at_minus_inf, 1.0 + 0j)
        out[inner] = self.boundary_kernel(tanh_pi_xi, i_xi)
        return out

    def boundary_kernel(self, tanh_pi_xi, i_xi) -> np.ndarray:
        """The boundary value at |xi| <= XI_SATURATION from tanh(pi xi)
        and i xi."""
        t = tanh_pi_xi
        sin_b, icos_b = self._den
        den = sin_b - icos_b * t
        sin_1, icos_1 = self._c1_num
        sin_2, icos_2 = self._c2_num
        c1p = self._c1_phase * ((sin_1 - icos_1 * t) / den)
        c2p = self._c2_phase * ((sin_2 - icos_2 * t) / den)
        gamma1 = -(self._beta_scale * np.exp(self._beta.log(self._sigma + i_xi)))
        return c1p + gamma1 * c2p

    def unit(self, xi: np.ndarray) -> np.ndarray:
        """The unit-modulus factor wh_c1 at a float array of xi."""
        if np.isnan(xi).any():
            raise DomainError("Wiener-Hopf factor needs xi that is not nan")
        # finite on the loop, where |xi| <= XI_SATURATION; refused, as
        # wh_c1 refuses it, once 1 + xi^2 overflows
        return _check_finite(self.unit_values(*unit_tables(xi)), "principal_power")

    def unit_values(self, finite, positive, log_sq, log_minus, log_plus) -> np.ndarray:
        """`unit` from the arrays of unit_tables: its kernel."""
        a, e_minus, e_plus = self._powers
        val = np.exp(a * log_sq) * np.exp(e_minus * log_minus) * np.exp(e_plus * log_plus)
        return np.where(finite, val, np.where(positive, 1.0 + 0j, self._c1_at_minus_inf))


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
