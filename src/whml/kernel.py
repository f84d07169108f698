"""Jump kernel of the half-line operator, its added potential, and the
boundary delta image, each next to an independent route.

The kernel m is the Levy density of the process generated by the symbol
(1 + xi^2)^alpha: it behaves like |y|^(-1-2*alpha) at the origin and decays
like e^(-|y|) at infinity.  Everything downstream (operator application,
quadratic forms, Mellin reductions) is built on these few functions, so each
closed form here is paired with a direct-integral route used by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import quadrature as q
from .errors import DomainError
from .specfun import bessel_k, kummer_u

__all__ = [
    "KernelParams",
    "kernel_m",
    "kernel_m_oracle",
    "symbol_identity_residual",
    "bernstein_residual",
    "potential_full",
    "potential_on_grid",
    "delta_image",
    "frac_laplacian_constant",
    "killing_coefficient",
]


@dataclass(frozen=True)
class KernelParams:
    """Order parameter of the symbol (1 + xi^2)^alpha, 0 < alpha < 1."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise DomainError("KernelParams requires 0 < alpha < 1")

    @property
    def prefactor(self) -> float:
        """alpha / Gamma(1 - alpha), the Bernstein-measure normalisation."""
        return self.alpha / math.gamma(1.0 - self.alpha)

    @property
    def c_alpha(self) -> complex:
        """-i * alpha * 2^(2 alpha) / Gamma(1 - alpha)."""
        return -1j * self.alpha * 2.0 ** (2.0 * self.alpha) / math.gamma(1.0 - self.alpha)

    @cached_property
    def _m_constants(self) -> tuple[float, float]:
        """(nu, c) of the kernel c |y|^(-nu) K_nu(|y|), computed once."""
        nu = 0.5 + self.alpha
        return nu, self.prefactor * 2.0 ** nu / math.sqrt(math.pi)


def kernel_m(y, k: KernelParams):
    """Closed-form jump kernel m(y) = c |y|^(-nu) K_nu(|y|), nu = 1/2 + alpha,
    even and positive, on arrays; bessel_k's guard refuses y = 0 in any
    entry.  A float gives a float, skipping the array conversion."""
    nu, c = k._m_constants
    ay = abs(y) if isinstance(y, float) else np.abs(np.asarray(y, dtype=float))
    kv = bessel_k(nu, ay)  # first, so that y = 0 is refused before the power divides by 0
    # np.power, not **: on a numpy scalar ** calls the C library's pow, while
    # np.power runs the array loop, so a scalar gets the array's last bit
    m = c * np.power(ay, -nu) * kv
    return float(m) if isinstance(y, float) else m


def kernel_m_oracle(y: float, k: KernelParams) -> float:
    """m(y) by direct quadrature of its subordination integral.

    Integrates (4 pi s)^(-1/2) exp(-y^2/(4s)) e^(-s) s^(-1-alpha) against the
    Bernstein normalisation; the integrand is smooth with a saddle near
    s ~ |y|/2, handled with breakpoint hints.
    """
    if y == 0.0:
        raise DomainError("kernel_m_oracle is singular at y = 0")
    ay = abs(y)
    a = k.alpha

    def integrand(s):
        return math.exp(-ay * ay / (4.0 * s) - s) * s ** (-1.5 - a)

    split = max(2.0 * ay, 2.0)
    hints = sorted({ay / 2.0, ay, min(1.0, split / 2.0)})
    val = q.quad_split_inf(
        integrand, 0.0, split, points=[h for h in hints if 0 < h < split],
        epsabs=1e-14, epsrel=1e-11,
    )
    return k.prefactor / math.sqrt(4.0 * math.pi) * val


def symbol_identity_residual(xi: float, k: KernelParams) -> float:
    """Absolute defect of (1+xi^2)^alpha = 1 + integral of (1-cos(y xi)) m(y).

    The integral is split at y0 = 1/max(1, |xi|): the inner panel uses the
    substitution y = t^(1/(2-2alpha)) to absorb the y^(-1-2alpha) blow-up
    (the integrand itself is O(y^(1-2alpha)), integrable for alpha < 1), the
    outer panel separates the oscillatory part into a cosine-weighted rule,
    and the exponential tail is cut where it is provably below tolerance.
    """
    a = k.alpha
    axi = abs(xi)
    if axi == 0.0:
        return 0.0

    y0 = 1.0 / max(1.0, axi)
    kappa = 1.0 / (2.0 - 2.0 * a)

    def inner(t):
        y = t ** kappa
        osc = 2.0 * math.sin(0.5 * y * axi) ** 2
        return osc * kernel_m(y, k) * kappa * t ** (kappa - 1.0)

    inner_val = q.quad(inner, 0.0, y0 ** (1.0 / kappa), epsabs=1e-11, epsrel=1e-10)

    y_cut = 60.0  # m(60) ~ 1e-28, far below any tolerance in play
    plain = q.quad(lambda y: kernel_m(y, k), y0, y_cut, epsabs=1e-11, epsrel=1e-10)
    cosw = q.quad(lambda y: kernel_m(y, k), y0, y_cut, weight="cos", wvar=axi,
                  epsabs=1e-11, epsrel=1e-10)
    total = 2.0 * (inner_val + plain - cosw)
    return abs((1.0 + xi * xi) ** a - 1.0 - total)


def bernstein_residual(x: float, k: KernelParams) -> float:
    """Defect of the subordination identity for (1+x)^alpha, x >= 0."""
    if x < 0.0:
        raise DomainError("bernstein_residual requires x >= 0")
    a = k.alpha
    if x == 0.0:
        return 0.0
    kappa = 1.0 / (1.0 - a)

    def head(t):
        s = t ** kappa
        return -math.expm1(-x * s) * math.exp(-s) * s ** (-1.0 - a) * kappa * t ** (kappa - 1.0)

    def tail(s):
        return -math.expm1(-x * s) * math.exp(-s) * s ** (-1.0 - a)

    integral = q.quad(head, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11) + q.quad(
        tail, 1.0, np.inf, epsabs=1e-13, epsrel=1e-11
    )
    return abs((1.0 + x) ** a - 1.0 - k.prefactor * integral)


def potential_full(x: float, k: KernelParams) -> float:
    """Added potential -integral_x^inf m(w) dw; strictly negative, x > 0.

    Blows up like x^(-2 alpha) as x -> 0+ and decays exponentially.  For
    x < 1 the leading term c0 w^(-1 - 2 alpha) of m (c0 = 2 alpha
    killing_coefficient(k)) is integrated in closed form over [x, 2] and
    quadrature takes only the remainder m - c0 w^(-1 - 2 alpha), to a
    tolerance set by the closed-form total: integrating m itself loses the
    head to cancellation and can return a value of the wrong sign.  An
    error in c0 comes back through the remainder, so the total does not
    rest on it.  For x >= 1 the tolerance is relative only: the potential
    falls below any fixed absolute bound.
    """
    if x <= 0.0:
        raise DomainError("potential_full requires x > 0")
    if x >= 1.0:
        split = max(2.0 * x, 2.0)
        val = q.quad_split_inf(lambda w: kernel_m(w, k), x, split,
                               epsabs=0.0, epsrel=1e-10)
        return -val
    a = k.alpha
    lead = killing_coefficient(k)
    closed = lead * (x ** (-2.0 * a) - 2.0 ** (-2.0 * a))
    c0 = 2.0 * a * lead
    head = q.quad(lambda w: kernel_m(w, k) - c0 * w ** (-1.0 - 2.0 * a), x, 2.0,
                  epsabs=1e-10 * closed, epsrel=1e-10)
    tail = q.quad(lambda w: kernel_m(w, k), 2.0, np.inf, epsabs=1e-13, epsrel=1e-10)
    return -(closed + head + tail)


def potential_on_grid(xs: np.ndarray, k: KernelParams) -> np.ndarray:
    """Vectorised potential_full on an increasing grid of points > 0: 12-point
    Gauss-Legendre panels between nodes, summed from the last one, plus
    potential_full there; the oracle of halfline's kernel table."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 1 or xs.size < 2 or xs[0] <= 0.0 or np.any(np.diff(xs) <= 0):
        raise DomainError("potential_on_grid needs an increasing grid with x > 0")
    t, wt = np.polynomial.legendre.leggauss(12)
    half, mid = 0.5 * (xs[1:] - xs[:-1]), 0.5 * (xs[1:] + xs[:-1])
    panel = half * (kernel_m(mid[:, None] + half[:, None] * t, k) @ wt)
    tail = -potential_full(xs[-1], k)
    return -np.append(np.cumsum(panel[::-1])[::-1] + tail, tail)


def delta_image(x: float, k: KernelParams) -> complex:
    """Closed-form image of the boundary delta under the order-reduced
    operator: a Kummer-U profile times the complex constant carried by the
    symbol factorisation.  Re(i delta_image(x)) has the x^(-2 alpha)
    leading term of -potential_full(x)."""
    if x <= 0.0:
        raise DomainError("delta_image requires x > 0")
    a = k.alpha
    return k.c_alpha * math.exp(-x) * kummer_u(a + 1.0, 2.0 * a + 1.0, 2.0 * x)


def _power_constant(lam: float, a: float) -> float:
    """Gamma(2a - lam) Gamma(1 + lam) sin(pi (a - lam)), unguarded."""
    return math.gamma(2.0 * a - lam) * math.gamma(1.0 + lam) * math.sin(math.pi * (a - lam))


def frac_laplacian_constant(lam: float, k: KernelParams) -> float:
    """Coefficient turning x^lam into x^(lam - 2 alpha) under the truncated
    homogeneous operator: Gamma(2a - lam) Gamma(1 + lam) sin(pi (a - lam)) / pi."""
    if not (-1.0 < lam < 2.0 * k.alpha):
        raise DomainError("frac_laplacian_constant requires -1 < lam < 2*alpha")
    return _power_constant(lam, k.alpha) / math.pi


def killing_coefficient(k: KernelParams) -> float:
    """Magnitude of the x^(-2 alpha) leading singularity of the killing
    potential: frac_laplacian_constant(0, k), Gamma(2a) sin(pi a) / pi."""
    return frac_laplacian_constant(0.0, k)
