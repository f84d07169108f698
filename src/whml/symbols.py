"""Closed-form factors of the generalized symbol in both regularity regimes.

Two Wiener-Hopf factors and one Mellin factor make up the whole symbol: a
unit-modulus piece c1, a vanishing-at-zero piece c2, and a beta-function
multiplier b2, which the contour reads pre-multiplied (gamma1_mellin_term).
On the boundary segment of the contour the half-line origin replaces the
two one-sided limits of c1/c2 by circular-arc interpolants whose closed
form is a ratio of sines (c1p_inf, c2p_inf); those are computed in a
cosh-free rearrangement that stays finite for arbitrarily large
frequencies.

The unit factor c1 = (1+xi^2)^a (xi-i)^(s-2a-m) (xi+i)^(m-s) has real
exponents that sum to zero, so it is the phase exp(2i nu theta), theta =
arctan2(1, xi), nu = m - s + a: one kernel, unit_phase, for wh_c1, the loop
and the validation symbol; the three principal powers are its oracle.

The loop reads the symbol through one LoopSymbol per triple
(SpectralParams.loop_symbol): the boundary value and the unit factor as
array functions of xi, with every xi-free constant computed once, equal bit
for bit to the public factors above, which stay as its oracles; both take
the one-sided limits beyond XI_SATURATION, by one rule.  The unit factor
reads xi only through theta (unit_tables), which a caller that evaluates
many triples on one set of xi, as the loop's base grid does, computes once.
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
from .specfun import PartialBeta, complex_beta, scalar_or_array

__all__ = [
    "Regime",
    "SpectralParams",
    "LoopSymbol",
    "unit_tables",
    "unit_phase",
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


# beyond this |xi| the loop takes the symbol's one-sided limits.  The Mellin
# term falls only like |xi|^(-2 alpha), so just inside, the boundary value is
# still 2.0e-13 off its limit at (0.75, 2, 2.3), 6.1e-6 at (0.3, 2, 1.2), and
# 0.075 / 0.34 / 0.50 at p = 2, alpha 0.05 / 0.01 / 1e-4; no audit sees the jump
XI_SATURATION = 1e8


def _unsaturated(xi) -> np.ndarray:
    """|xi| <= XI_SATURATION, where the loop evaluates the symbol (not nan)."""
    return np.abs(xi) <= XI_SATURATION


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
    def beta_sigma(self) -> float:
        """First beta argument at xi = 0: s - 2*alpha + 1/p'."""
        return self.s - 2.0 * self.alpha + 1.0 - 1.0 / self.p

    @functools.cached_property
    def loop_symbol(self) -> "LoopSymbol":
        """The symbol's loop evaluator, with its constants computed once."""
        return LoopSymbol(self)


def _refuse_nan(xi, what: str):
    """xi, refused if it holds nan: nan has no limit for a branch to take."""
    if np.isnan(xi).any():
        raise DomainError(f"{what} needs xi that is not nan")
    return xi


def _xi_array(xi) -> np.ndarray:
    """xi as an array of at least one dimension, nan refused: a scalar call
    is a one-element array call, so the two agree bit for bit."""
    return _refuse_nan(np.atleast_1d(np.asarray(xi, dtype=float)), "Wiener-Hopf factor")


def unit_phase(nu, theta):
    """exp(2i nu theta), the unit factor at theta = arctan2(1, xi): wh_c1,
    LoopSymbol.unit_values, and at nu = n (xi+i)^n (xi-i)^(-n)."""
    return np.exp(2j * nu * theta)


def wh_c1(xi, sp: SpectralParams):
    """Unit-modulus Wiener-Hopf factor
    (1+xi^2)^a (xi-i)^(s-2a-m) (xi+i)^(m-s) = exp(2i nu arctan2(1, xi)).

    Limits, which arctan2 gives itself: 1 at +inf, e^(2 pi nu i) at -inf,
    e^(pi nu i) from both sides of 0.  Accepts arrays.
    """
    x = _xi_array(xi)
    return scalar_or_array(unit_phase(sp.nu, np.arctan2(1.0, x)).reshape(np.shape(xi)))


def wh_c2(xi, sp: SpectralParams):
    """Vanishing-at-zero Wiener-Hopf factor
    (-i xi)^(2a) (xi-i)^(s-2a-m) (xi+i)^(m-s)
    = (1 + xi^-2)^(-a) exp(i(2 nu arctan2(1, xi) - pi a sgn xi)).

    The modulus is (|xi| / hypot(1, xi))^(2a), which does not overflow.
    Limits: 0 at 0, e^(-i pi a) at +inf, e^(-i pi a) e^(2 pi i nu') at
    -inf.  Accepts arrays.
    """
    a = sp.alpha
    x = _xi_array(xi)
    finite = np.isfinite(x)
    xf = np.where(finite, x, 0.0)
    val = ((np.abs(xf) / np.hypot(1.0, xf)) ** (2.0 * a)
           * np.exp(1j * (2.0 * sp.nu * np.arctan2(1.0, xf) - math.pi * a * np.sign(xf))))
    out = np.where(finite, val, np.where(x > 0.0, cmath.exp(-1j * math.pi * a),
                                         cmath.exp(1j * math.pi * (2.0 * sp.nu_prime - a))))
    return scalar_or_array(out.reshape(np.shape(xi)))


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
    """(sin pi a / pi) * B(sigma + i xi, 2a) by specfun.PartialBeta, which
    needs no pole scan for a > 0 and sigma > 0; sigma <= 0 is refused with
    PoleError.  Arrays broadcast."""
    a = np.asarray(alpha, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if not (sigma > 0.0).all():  # nan fails too
        raise PoleError("beta pole: the first argument's real part must be positive")
    z = sigma + 1j * np.asarray(xi, dtype=float)
    return np.sin(math.pi * a) / math.pi * PartialBeta(2.0 * a)(z)


def c1p_inf(xi, sp: SpectralParams):
    """Boundary-segment value of the c1 factor:
    e^(i pi nu) sin(pi(1/p + nu - i xi)) / sin(pi(1/p - i xi));
    approaches c1(-inf) as xi -> +inf and c1(+inf) as xi -> -inf.
    The denominator never vanishes, since sin(pi/p) > 0.  Accepts arrays.
    """
    _refuse_nan(xi, "c1p_inf")
    nu = sp.nu
    return scalar_or_array(cmath.exp(1j * math.pi * nu) * sine_ratio(1.0 / sp.p + nu, 1.0 / sp.p, xi))


def c2p_inf(xi, sp: SpectralParams):
    """Boundary-segment value of the c2 factor, with the extra e^(-i pi a)
    phase carried by its one-sided limits.  Accepts arrays."""
    _refuse_nan(xi, "c2p_inf")
    nu_p = sp.nu_prime
    return scalar_or_array(cmath.exp(1j * math.pi * (nu_p - sp.alpha))
                 * sine_ratio(1.0 / sp.p + nu_p, 1.0 / sp.p, xi))


def gamma1_mellin_term(xi, sp: SpectralParams):
    """The pre-multiplied Mellin coefficient on the boundary segment:
    -(sin pi a / pi) * B(s - 2a + 1/p' + i xi, 2a).  Accepts arrays.

    Exposing the product (rather than its two factors) keeps the
    Kummer-profile origin value out of the contour code entirely.
    """
    _refuse_nan(xi, "gamma1_mellin_term")
    return scalar_or_array(-beta_term(sp.alpha, sp.beta_sigma, xi))


def unit_tables(xi: np.ndarray) -> np.ndarray:
    """theta = arctan2(1, xi), all of LoopSymbol.unit that depends on xi,
    read-only; beyond XI_SATURATION its limits, 0 (xi > 0) and pi."""
    theta = np.where(_unsaturated(xi), np.arctan2(1.0, xi), np.where(xi > 0.0, 0.0, math.pi))
    theta.flags.writeable = False
    return theta


class LoopSymbol:
    """The generalized symbol of one triple as the loop reads it, as two
    array functions of real xi: `boundary` on the boundary segment and
    `unit`, the unit-modulus factor wh_c1, on the five others.

    Within |xi| <= XI_SATURATION `boundary` is c1p_inf + gamma1_mellin_term
    * c2p_inf and `unit` is wh_c1; beyond, each is a one-sided limit of
    wh_c1: e^(2 pi i nu) for `boundary` at xi > 0 and `unit` at xi < 0, else
    1.  Everything free of xi is computed once here: the sine terms of 1/p,
    1/p + nu and 1/p + nu', the phases e^(i pi nu) and e^(i pi (nu' - a)),
    loggamma(2a), sin(pi a)/pi, sigma and the limits of wh_c1.  A boundary
    point costs one denominator shared by the two sine ratios, two loggamma
    calls and one exp; a unit point one complex exp on the theta of
    unit_tables.  The kernels make the public factors' floating-point
    operations in the same order, so they equal them bit for bit.

    As in beta_term, one check, sigma = beta_sigma > 0, stands for a beta
    pole scan (2a lies in (0, 2)); with it every loggamma, phase and sine
    ratio of the kernels is finite at |xi| <= XI_SATURATION, so they make
    no finiteness check.
    """

    def __init__(self, sp: SpectralParams):
        if not sp.beta_sigma > 0.0:
            raise PoleError(f"beta argument sigma = {sp.beta_sigma!r} is not positive")
        inv_p, nu, nu_p, a = 1.0 / sp.p, sp.nu, sp.nu_prime, sp.alpha
        self._den = _sine_terms(inv_p)
        self._c1_num = _sine_terms(inv_p + nu)
        self._c2_num = _sine_terms(inv_p + nu_p)
        self._c1_phase = cmath.exp(1j * math.pi * nu)
        self._c2_phase = cmath.exp(1j * math.pi * (nu_p - a))
        self._sigma = np.asarray(sp.beta_sigma, dtype=float)
        self._beta = PartialBeta(2.0 * np.asarray(a))
        self._beta_scale = np.sin(math.pi * np.asarray(a)) / math.pi
        self._nu = nu
        # wh_c1 at -inf and +inf: the boundary value's limits at xi > 0 and xi < 0
        self._c1_limits = unit_phase(nu, np.array([math.pi, 0.0]))

    def boundary(self, xi: np.ndarray) -> np.ndarray:
        """The symbol on the boundary segment at a float array of xi."""
        inner = _unsaturated(xi)
        if inner.all():
            return self.boundary_kernel(np.tanh(math.pi * xi), 1j * xi)
        # nan fails the test above, so only this branch meets it
        _refuse_nan(xi, "the boundary value")
        out = np.where(xi > 0.0, *self._c1_limits)
        x = xi[inner]
        out[inner] = self.boundary_kernel(np.tanh(math.pi * x), 1j * x)
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
        _refuse_nan(xi, "Wiener-Hopf factor")
        return self.unit_values(unit_tables(xi))

    def unit_values(self, theta) -> np.ndarray:
        """`unit` from the theta of unit_tables: its kernel."""
        return unit_phase(self._nu, theta)


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
