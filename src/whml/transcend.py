"""The two transcendental functions whose equality marks loss of
Fredholmness, the root of their frequency-zero equation, and machine checks
of the inequality estimates that keep them apart everywhere else.

Everything is parameterised by (alpha, tau, xi) with tau = s - 1/p; the
regularity-order bookkeeping collapses because the sine ratio only sees
tau (the m = 1 convention is fixed throughout).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, PoleError
from .kernel import _power_constant
from .reports import VerificationReport
from .specfun import complex_beta
from .symbols import beta_term, sine_ratio

__all__ = [
    "te_residual_zero",
    "alpha_c",
    "critical_s",
    "arg_beta_series_residual",
    "inequality_scan",
    "no_solution_certificate",
    "SCAN_REGIONS",
]


def _ts_array(alpha, tau, xi):
    """Sine-ratio side sin(pi(1+a-tau-i xi))/sin(pi(1+2a-tau-i xi))."""
    return sine_ratio(1.0 + alpha - tau, 1.0 + 2.0 * alpha - tau, xi)


def _tb_array(alpha, tau, xi):
    """Beta side (sin pi a / pi) * B(tau + 1 - 2a + i xi, 2a)."""
    sigma = np.asarray(tau, dtype=float) + 1.0 - 2.0 * np.asarray(alpha, dtype=float)
    return beta_term(alpha, sigma, xi)


def te_residual_zero(tau: float, alpha: float) -> float:
    """Residual of the frequency-zero equation
    Gamma(2a - tau) Gamma(tau + 1) sin(pi(a - tau)) = Gamma(2a) sin(pi a):
    the truncated operator's constant on x^tau less its constant on x^0
    (kernel.frac_laplacian_constant), times pi."""
    x = 2.0 * alpha - tau
    if abs(x - round(x)) < 1e-12 and x < 0.5:
        raise PoleError(f"gamma pole at {x}")
    y = tau + 1.0
    # tau is finite here (round raised otherwise), so the cheap test may go first
    if y < 0.5 and abs(y - round(y)) < 1e-12:
        raise PoleError(f"gamma pole at {y}")
    return _power_constant(tau, alpha) - _power_constant(0.0, alpha)


def _unresolvable(alpha: float) -> DomainError:
    return DomainError(f"alpha_c({alpha!r}) is not resolvable at float precision")


def alpha_c(alpha: float) -> float:
    """The critical smoothness offset: the unique root tau = 1 + alpha_c of
    the frequency-zero equation, returned as alpha_c in (0, alpha).

    Bisection of the theorem's interval (1, 1 + a) for a < 1/2 and
    (2a, 1 + a) for a >= 1/2, on which the residual changes sign exactly
    once.  Bisection evaluates only interior points, so the gamma pole at
    the end 2a is never touched.  It runs to float resolution: the root is
    accurate to the float spacing near tau, 2.2e-16 to 4.4e-16.  Where that spacing
    cannot resolve the root inside the interval, which happens only for some
    alpha within about 3e-8 of 0 or 1, DomainError is raised instead, also
    when a midpoint lands within the 1e-12 pole guard of the gamma factor.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha_c requires 0 < alpha < 1")
    lo = 1.0 if alpha < 0.5 else 2.0 * alpha
    hi = 1.0 + alpha
    # near alpha -> 1 the root hugs a gamma pole where the residual slope is
    # steep, and any coarser stop would leave a visible residual
    try:
        while True:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if te_residual_zero(mid, alpha) > 0.0:
                lo = mid
            else:
                hi = mid
    except PoleError:
        raise _unresolvable(alpha) from None
    root = 0.5 * (lo + hi) - 1.0
    if not (0.0 < root < alpha):
        raise _unresolvable(alpha)
    return root


def critical_s(alpha: float, p: float) -> float:
    """The non-Fredholm smoothness value 1 + 1/p + alpha_c(alpha)."""
    return 1.0 + 1.0 / p + alpha_c(alpha)


def arg_beta_series_residual(sigma: float, gamma: float, xi: float, n_terms: int) -> float:
    """Difference (mod 2 pi) between the arctan series for arg B(sigma+i xi, gamma)
    and the directly computed argument.

    The truncated sum is completed with the exact antiderivative of its
    integral tail, so the residual reflects the series identity rather than
    truncation.
    """
    if sigma <= 0.0 or gamma <= 0.0 or xi < 0.0:
        raise DomainError("arg_beta_series_residual requires sigma, gamma > 0 and xi >= 0")
    if xi == 0.0:
        return 0.0
    n = np.arange(n_terms, dtype=float)
    series = float(
        np.sum(np.arctan(xi / (sigma + gamma + n)) - np.arctan(xi / (sigma + n)))
    )

    def antideriv(base: float, t: float) -> float:
        u = base + t
        return u * math.atan2(xi, u) + 0.5 * xi * math.log(u * u + xi * xi)

    tail = antideriv(sigma, float(n_terms)) - antideriv(sigma + gamma, float(n_terms))
    direct = float(np.angle(complex_beta(complex(sigma, xi), gamma)))
    diff = (series + tail) - direct
    return abs((diff + math.pi) % (2.0 * math.pi) - math.pi)


def _midgrid(lo: float, hi: float, n: int) -> np.ndarray:
    return lo + (np.arange(n) + 0.5) * (hi - lo) / n


_XI_FAR = 10.0


@dataclass(frozen=True)
class _Region:
    """One grid check of the two sides: alpha, tau and xi ranges (tau
    windows depend on alpha), and a margin that is positive where the
    estimate holds."""

    alphas: tuple
    tau_windows: Callable
    xis: tuple
    margin: Callable
    grid: str


def _cell_min(margin, a, taus, xis):
    """Smallest margin over the (tau, xi) grid at one alpha, and its cell."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ts = _ts_array(a, taus[:, None], xis[None, :])
        tb = _tb_array(a, taus[:, None], xis[None, :])
        m = margin(a, ts, tb, xis[None, :])
    i = np.unravel_index(np.argmin(m), m.shape)
    return m[i], i


def _scan(region: _Region, density: int):
    """Per-alpha midpoint scan of a region: the grid minimum of its margin
    and the (alpha, tau, xi) where it occurred."""
    xis = _midgrid(*region.xis, density)
    worst = math.inf
    arg = None
    for a in _midgrid(*region.alphas, density):
        taus = np.concatenate([_midgrid(lo, hi, density) for lo, hi in region.tau_windows(a)])
        m, i = _cell_min(region.margin, a, taus, xis)
        if m < worst:
            worst = float(m)
            arg = (float(a), float(taus[i[0]]), float(xis[i[1]]))
    return worst, arg


def _te3_margin(a, ts, tb, xis):
    line = -4.0 * a * xis
    return np.minimum(np.angle(tb) - line, line - np.angle(ts))


def _te7_margin(a, ts, tb, xis):
    half_pi = math.pi / 2.0
    args_s = np.angle(ts)
    args_b = np.angle(tb)
    return np.minimum.reduce([
        -half_pi - args_s,      # arg of the sine side <= -pi/2
        args_s + math.pi,       # arg of the sine side > -pi
        args_b + half_pi,       # arg of the beta side > -pi/2
        -args_b,                # arg of the beta side < 0
    ])


def _arg_separation(a, ts, tb, xis):
    """Smallest principal argument of the sine side over the beta side."""
    return np.abs(np.angle(ts / tb))


def _gap(a, ts, tb, xis):
    """|sine side - beta side|, with a non-finite value read as infinitely apart."""
    gap = np.abs(ts - tb)
    return np.where(np.isfinite(gap), gap, np.inf)


SCAN_REGIONS = {
    "TE2": _Region(
        (0.0, 0.5), lambda a: [(a, 1.0)], (0.25, _XI_FAR),
        lambda a, ts, tb, xis: np.minimum(np.abs(ts) - 2.0 / math.pi, 2.0 / math.pi - np.abs(tb)),
        "alpha in (0,1/2), tau in [alpha,1), xi in [1/4,10]"),
    "TE3": _Region(
        (0.0, 0.5), lambda a: [(a, 1.0), (1.0 + a, 2.0)], (0.0, 0.25), _te3_margin,
        "alpha in (0,1/2), tau in [alpha,1) or [1+alpha,2), xi in (0,1/4)"),
    "TE4": _Region(
        (0.0, 0.5), lambda a: [(0.0, a)], (0.0, _XI_FAR), _arg_separation,
        "alpha in (0,1/2), tau in (0,alpha), xi in (0,10]"),
    "TE6": _Region(
        (0.0, 1.0), lambda a: [(1.0 + a, 2.0)], (0.25, _XI_FAR),
        lambda a, ts, tb, xis: np.abs(ts) - np.abs(tb),
        "alpha in (0,1), tau in [1+alpha,2), xi in [1/4,10]"),
    "TE7": _Region(
        (0.5, 1.0), lambda a: [(1.0 + a, 2.0)], (0.0, 0.25), _te7_margin,
        "alpha in [1/2,1), tau in [1+alpha,2), xi in (0,1/4)"),
    "TE8": _Region(
        (0.0, 1.0), lambda a: [(1.0, 1.0 + a)], (0.0, _XI_FAR), _arg_separation,
        "alpha in (0,1), tau in (1,1+alpha), xi in (0,10]"),
}

# the LOW no-solution certificate: the whole low-regularity cube
_LOW = _Region((0.0, 0.5), lambda a: [(0.0, 1.0)], (0.0, _XI_FAR), _gap,
               "alpha x tau x xi midpoint grid")


def inequality_scan(region: str, grid_density: int = 40) -> VerificationReport:
    """Evaluate one inequality estimate on a midpoint grid of its stated
    region; reports the minimum margin and where it occurred (violations are
    content, not errors)."""
    if grid_density < 20:
        raise DomainError("inequality_scan requires grid_density >= 20")
    try:
        spec = SCAN_REGIONS[region.upper()]
    except KeyError as exc:
        raise DomainError(f"unknown scan region {region!r}") from exc
    margin, argmin = _scan(spec, grid_density)
    return VerificationReport.from_margin(
        region.upper(), f"{spec.grid}, {grid_density} cells per axis (midpoints)",
        margin, 0.0, argmin)


def no_solution_certificate(regime: str, grid_density: int = 30,
                            alphas=(0.3, 0.5, 0.75)) -> VerificationReport:
    """Grid certificate that the two sides stay apart.

    LOW scans the full admissible cube and reports the smallest separation.
    HIGH scans (tau, xi) per alpha and passes when the grid minimum sits
    within one cell of the known touching point (xi = 0, tau = 1 + alpha_c).
    """
    if grid_density < 20:
        raise DomainError("no_solution_certificate requires grid_density >= 20")
    regime = regime.upper()
    if regime == "LOW":
        worst, arg = _scan(_LOW, grid_density)
        return VerificationReport.from_margin(
            "NO_SOLUTION_LOW", f"{_LOW.grid}, {grid_density}^3 cells", worst, 1e-3, arg)
    if regime == "HIGH":
        # the touching point sits exactly at xi = 0, so the frequency grid
        # keeps that row; the tau grid stays at cell midpoints
        taus = _midgrid(1.0, 2.0, grid_density)
        xis = np.linspace(0.0, _XI_FAR, grid_density)
        tau_cell = (2.0 - 1.0) / grid_density
        xi_cell = _XI_FAR / grid_density
        overall_min = math.inf
        arg = None
        localized = True
        details = []
        for a in alphas:
            gap, i = _cell_min(_gap, a, taus, xis)
            tau_star = 1.0 + alpha_c(a)
            ok = (abs(taus[i[0]] - tau_star) <= tau_cell
                  and xis[i[1]] <= xi_cell)
            localized &= ok
            details.append(f"alpha={a}: argmin (tau={taus[i[0]]:.4f}, xi={xis[i[1]]:.4f}) "
                           f"target tau={tau_star:.4f} ok={ok}")
            if gap < overall_min:
                overall_min = float(gap)
                arg = (float(a), float(taus[i[0]]), float(xis[i[1]]))
        return VerificationReport(
            name="NO_SOLUTION_HIGH",
            grid=f"tau x xi midpoint grid, {grid_density}^2 cells per alpha; " + "; ".join(details),
            tolerance=0.0,
            min_margin=overall_min,
            argmin=arg,
            passed=localized,
        )
    raise DomainError(f"unknown regime {regime!r}")
