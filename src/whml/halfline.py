"""Application of the half-line operator to sampled functions, two ways.

The operator acts as identity plus a singular integral against the jump
kernel; equivalently as a Fourier multiplier on the zero extension plus a
multiplication by the added potential.  Both routes are implemented
independently so that each can serve as the other's oracle.  The
singular-integral route runs adaptive quadrature over scalar spline and
kernel values, one of each per quadrature node; both take a float path
without numpy dispatch (see gridfn and kernel._m_array) that returns the
array call's bits.  The fractional integral/derivative pair that links
boundary differences to Mellin kernels lives here as well: the
Riemann-Liouville integral is exact on the cubic spline through
incomplete-beta product weights, at one point or at every node in one FFT
convolution, with the adaptive quadrature route kept as its oracle; the
Caputo derivative keeps order-2 product integration.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import beta as beta_fn, betainc

from . import quadrature as q
from .errors import AccuracyError, DomainError, ResolutionError
from .gridfn import GridFunction
from .kernel import KernelParams, kernel_m, potential_full, potential_on_grid

__all__ = [
    "apply_singular",
    "apply_fourier",
    "quadratic_form",
    "rl_integral",
    "rl_integral_grid",
    "caputo_derivative",
    "mellin_difference_residual",
]

_ALIAS_BAND = 0.75
_ALIAS_TOL = 1e-8
_K = np.arange(4.0)  # the powers of a cubic spline panel


def _second_difference_integral(u: GridFunction, x: float, k: KernelParams,
                                eps: float) -> float:
    """integral_eps^x (2u(x) - u(x+w) - u(x-w)) m(w) dw."""
    if eps >= x:
        return 0.0
    ux = u(x)

    def integrand(w):
        return (2.0 * ux - u(x + w) - u(x - w)) * kernel_m(w, k)

    return q.quad(integrand, eps, x, epsabs=1e-11, epsrel=1e-9, limit=400)


def _outer_integral(u: GridFunction, x: float, k: KernelParams, eps: float) -> float:
    """integral_max(x,eps)^inf (u(x) - u(x+w)) m(w) dw."""
    lo = max(x, eps)
    ux = u(x)
    mass = -potential_full(lo, k)  # integral_lo^inf m
    hi = u.length - x  # u vanishes beyond the grid
    if hi <= lo:
        return ux * mass
    moved = q.quad(lambda w: u(x + w) * kernel_m(w, k), lo, hi,
                   epsabs=1e-11, epsrel=1e-9, limit=400)
    return ux * mass - moved


def apply_singular(u: GridFunction, x: float, k: KernelParams, eps: float = 0.0) -> float:
    """Pointwise operator value via the symmetric-difference singular integral.

    The second-difference split keeps the integrand integrable even in the
    hypersingular range alpha >= 1/2.  eps > 0 evaluates the truncated
    integral; eps = 0 extrapolates the cutoff to zero from three dyadic
    levels (the limit exists, its rate is estimated rather than assumed).
    """
    if not (0.0 < x < u.length / 2.0):
        raise DomainError("apply_singular requires 0 < x < L/2")
    if eps < 0.0:
        raise DomainError("apply_singular requires eps >= 0")
    base = u(x) + _outer_integral(u, x, k, eps)
    if eps > 0.0:
        return base + _second_difference_integral(u, x, k, eps)

    eps0 = min(x / 4.0, 0.01)
    levels = [
        _second_difference_integral(u, x, k, eps0 / 2.0 ** j) for j in range(3)
    ]
    d10 = levels[1] - levels[0]
    d21 = levels[2] - levels[1]
    if abs(d21) < 1e-13:
        return base + levels[2]
    ratio = d10 / d21
    if not np.isfinite(ratio) or ratio <= 1.05:
        raise AccuracyError("cutoff extrapolation did not converge geometrically")
    return base + levels[2] + d21 / (ratio - 1.0)


def apply_fourier(u: GridFunction, k: KernelParams) -> GridFunction:
    """Whole-grid operator application: zero-extend to a doubled periodic
    grid, multiply the spectrum by (1 + xi^2)^alpha, restrict, and add the
    potential term.

    The boundary sample x = 0 uses the potential evaluated at h/2 (the true
    potential diverges there; the sample is only meaningful when u(0) = 0).
    """
    if not u.is_real:
        raise DomainError("apply_fourier expects a real grid function")
    tail = np.max(np.abs(u.samples[int(0.875 * u.n):]))
    scale = np.max(np.abs(u.samples))
    if scale > 0 and tail > 1e-8 * scale:
        raise DomainError("grid function does not vanish near x = L")

    n = u.n
    doubled = np.zeros(2 * n)
    doubled[n:] = u.samples
    spectrum = np.fft.fft(doubled)

    # energy above 3/4 Nyquist must be negligible or the multiplier output
    # is resolution-limited
    kk = np.fft.fftfreq(2 * n)
    high = np.abs(kk) > _ALIAS_BAND * 0.5
    total = float(np.sum(np.abs(spectrum) ** 2))
    if total > 0 and float(np.sum(np.abs(spectrum[high]) ** 2)) > _ALIAS_TOL * total:
        raise ResolutionError("input spectrum carries energy above 3/4 Nyquist")

    xi = 2.0 * math.pi * np.fft.fftfreq(2 * n, d=u.h)
    transformed = np.fft.ifft(spectrum * (1.0 + xi * xi) ** k.alpha).real
    truncated_part = transformed[n:]

    xs = u.xs.copy()
    xs[0] = u.h / 2.0
    pot = potential_on_grid(xs, k)
    return GridFunction(truncated_part + u.samples * pot, u.h)


def quadratic_form(u: GridFunction, k: KernelParams) -> float:
    """Energy form: L2 norm squared plus the symmetric double integral of
    squared differences against the kernel.

    The double integral is reduced to an outer integral over the offset w of
    the inner L2 profile; the w -> 0 strip is tamed with the same
    power-substitution used for the kernel identity.
    """
    xs = u.xs
    vals = u.samples
    l2 = float(np.trapezoid(np.abs(vals) ** 2, dx=u.h))

    def profile(w):
        shifted = u(xs + w)
        return float(np.trapezoid(np.abs(shifted - vals) ** 2, dx=u.h))

    a = k.alpha
    kappa = 1.0 / (2.0 - 2.0 * a)
    w0 = 0.5

    def inner(t):
        w = t ** kappa
        return profile(w) * kernel_m(w, k) * kappa * t ** (kappa - 1.0)

    head = q.quad(inner, 0.0, w0 ** (1.0 / kappa), epsabs=1e-10, epsrel=1e-8)
    w_cut = min(u.length, 60.0)
    body = q.quad(lambda w: profile(w) * kernel_m(w, k), w0, w_cut,
                  epsabs=1e-10, epsrel=1e-8, limit=400)
    return l2 + head + body


def _rl_of_callable(f, x: float, gamma: float) -> float:
    """Riemann-Liouville integral of a callable at x, order gamma in (0, 2).

    Substituting t = (x - y)^gamma turns the endpoint weight into a constant:
    I^gamma f(x) = (1/(gamma*Gamma(gamma))) * integral_0^{x^gamma} f(x - t^(1/gamma)) dt.

    The route of mellin_difference_residual, and the independent oracle of
    rl_integral in the tests.  Spline-backed integrands have a corner at
    every grid node, which makes the QUADPACK error estimate pessimistic;
    the generous slack keeps that from masquerading as divergence.
    """
    inv = 1.0 / gamma

    def integrand(t):
        return f(x - t ** inv)

    val = q.quad(integrand, 0.0, x ** gamma, epsabs=1e-10, epsrel=1e-9,
                 limit=400, slack=1e6)
    return val / (gamma * math.gamma(gamma))


def _rl_weights(d: np.ndarray, gamma: float) -> np.ndarray:
    """W_k(d) = integral_0^1 s^k (d - s)^(gamma - 1) ds for k = 0..3 and d >= 1,
    shape (4, d.size).

    Substituting s = d t gives d^(k + gamma) B(k + 1, gamma) I_(1/d)(k + 1, gamma)
    with the regularised incomplete beta I, a product of positive factors with
    no cancellation at any d.
    """
    k = _K[:, None]
    return d ** (k + gamma) * beta_fn(k + 1.0, gamma) * betainc(k + 1.0, gamma, 1.0 / d)


@lru_cache(maxsize=64)
def _node_weights(gamma: float, n: int) -> np.ndarray:
    """W_k(1..n-1): the weights of every node on an n-point grid."""
    w = _rl_weights(np.arange(1.0, n), gamma)
    w.setflags(write=False)
    return w


def _rl_coefficients(u: GridFunction, gamma: float) -> np.ndarray:
    """The spline coefficients c[k, j] of (y - x_j)^k on panel j, once the
    order and the grid function are admissible."""
    if not (0.0 < gamma < 2.0):
        raise DomainError("rl_integral supports 0 < gamma < 2")
    if not u.is_real:
        raise DomainError("rl_integral expects a real grid function")
    return u._cubic().c[::-1]


def rl_integral(u: GridFunction, x: float, gamma: float) -> float:
    """Riemann-Liouville fractional integral of the sampled function,
    (1/Gamma(gamma)) * integral_0^x u(y) (x - y)^(gamma - 1) dy, exact on the
    cubic spline up to rounding.

    With x = (m + theta) h, panel j < m contributes
    sum_k c[k, j] h^(k + gamma) W_k(m - j + theta) and the partial panel m
    contributes sum_k c[k, m] h^(k + gamma) theta^(k + gamma) B(k + 1, gamma):
    the product integration of Diethelm, Ford and Freed (2002) at spline
    order.  Every offset is built from the one theta; W_k is only
    Hoelder-gamma continuous at d = 1, so an offset rounded across 1 would
    show.  A node (theta == 0) reads the cached table of W_k(1..n-1).
    """
    if not (0.0 < x < u.length):
        raise DomainError("rl_integral requires 0 < x < L")
    c = _rl_coefficients(u, gamma)
    t = x / u.h
    m = min(int(t), u.n - 2)
    theta = t - m
    if theta == 0.0:
        w = _node_weights(gamma, u.n)[:, :m][:, ::-1]
    else:
        w = _rl_weights(np.arange(m, 0, -1) + theta, gamma)
    sums = (np.sum(c[:, :m] * w, axis=1)
            + c[:, m] * theta ** (_K + gamma) * beta_fn(_K + 1.0, gamma))
    return float(sums @ u.h ** (_K + gamma)) / math.gamma(gamma)


def rl_integral_grid(u: GridFunction, gamma: float) -> GridFunction:
    """I^gamma u at every node of u's grid (0 at x = 0, the whole spline
    integral at x = L), as a grid function on the same grid.

    The node sums of rl_integral are four convolutions of the coefficient rows
    with the weight rows, done together by FFT: the fast convolution of
    Hairer, Lubich and Schlichte (1985).
    """
    c = _rl_coefficients(u, gamma) * u.h ** _K[:, None]
    w = _node_weights(gamma, u.n)
    size = 1 << (2 * u.n - 3).bit_length()  # power of two >= linear convolution length
    spectrum = np.sum(np.fft.rfft(c, size) * np.fft.rfft(w, size), axis=0)
    sums = np.fft.irfft(spectrum, size)[:u.n - 1]
    vals = np.concatenate(([0.0], sums)) * (u.h ** gamma / math.gamma(gamma))
    return GridFunction(vals, u.h)


def _product_integral(f_nodes: np.ndarray, ys: np.ndarray, x: float,
                      beta: float) -> float:
    """Order-2 product integration of the endpoint-weighted integral
    (1/Gamma(beta)) * integral_0^x f(y) (x - y)^(beta - 1) dy.

    f is replaced by its piecewise-linear interpolant on the nodes ys
    (ys[-1] == x) and each panel is integrated against the weight exactly,
    so the singular endpoint carries no quadrature error at all.
    """
    left = ys[:-1]
    t_left = x - left          # larger weight argument
    t_right = x - ys[1:]
    c0 = f_nodes[:-1]
    c1 = np.diff(f_nodes) / np.diff(ys)
    pow_b = t_left ** beta - t_right ** beta
    pow_b1 = t_left ** (beta + 1.0) - t_right ** (beta + 1.0)
    total = float(np.sum((c0 + c1 * t_left) * pow_b / beta - c1 * pow_b1 / (beta + 1.0)))
    return total / math.gamma(beta)


def caputo_derivative(u: GridFunction, x: float, gamma: float) -> float:
    """Caputo fractional derivative: the RL integral of order n - gamma of
    the n-th derivative, n = 1 for gamma < 1 and n = 2 for gamma > 1,
    evaluated by order-2 product integration of the spline derivative.

    gamma = 1 returns u'(x) - u'(0) exactly (the degenerate case of the
    definition); the one-sided derivative at 0 comes from the spline.
    """
    if not (0.0 < x < u.length):
        raise DomainError("caputo_derivative requires 0 < x < L")
    if not (0.0 < gamma < 2.0):
        raise DomainError("caputo_derivative supports 0 < gamma < 2")
    if gamma == 1.0:
        du = u.derivative(1)
        return du(x) - du(0.0)
    n = 1 if gamma < 1.0 else 2
    dn = u.derivative(n)
    ys = np.append(u.xs[u.xs < x], x)
    return _product_integral(dn(ys), ys, x, n - gamma)


def mellin_difference_residual(u: GridFunction, x: float, k: KernelParams) -> float:
    """Defect of the boundary-difference reduction
    x^(-2a) (u(x) - u(0)) = (M_2a h)(x), h the Caputo derivative of order 2a.

    The Mellin kernel side collapses to x^(-2a) times the RL integral of h,
    which is evaluated by nested quadrature; for alpha >= 1/2 the reduction
    needs u'(0) = 0.
    """
    if not (0.0 < x < u.length / 2.0):
        raise DomainError("mellin_difference_residual requires 0 < x < L/2")
    a = k.alpha
    if a >= 0.5:
        du = u.derivative(1)
        scale = float(np.max(np.abs(u.samples))) / max(u.length, 1.0)
        # grid-level trace proxy: the spline's one-sided derivative carries
        # O(h^3) noise, so the gate is loose
        if abs(du(0.0)) > 1e-3 * max(scale, 1e-30):
            raise DomainError("alpha >= 1/2 requires u'(0) = 0")
    gamma = 2.0 * a
    lhs = x ** (-gamma) * (u(x) - u(0.0))

    def h(y):
        if y <= 0.0:
            return 0.0
        return caputo_derivative(u, y, gamma)

    rhs = x ** (-gamma) * _rl_of_callable(h, x, gamma)
    return abs(lhs - rhs)
