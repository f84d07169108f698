"""The two transcendental functions whose equality marks loss of
Fredholmness, the root of their frequency-zero equation, and machine checks
of the inequality estimates that keep them apart everywhere else.

Everything is parameterised by (alpha, tau, xi) with tau = s - 1/p; the
regularity-order bookkeeping collapses because the sine ratio only sees
tau (the m = 1 convention is fixed throughout).

Scans run in slabs of whole alphas, on one thread per usable CPU, and their
reports are bit-identical to a serial per-alpha scan's.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, PoleError, is_integer
from .kernel import _power_constant
from .reports import VerificationReport
# complex_beta is no longer called here; it stays importable from this
# module, where perfbench's tracer looks it up
from .specfun import complex_beta  # noqa: F401
from .symbols import beta_term, sine_ratio

__all__ = [
    "te_residual_zero",
    "alpha_c",
    "critical_s",
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
    if not math.isfinite(x):  # finite x means finite tau and alpha
        raise DomainError(f"te_residual_zero requires finite tau and alpha, got {tau!r}, {alpha!r}")
    if abs(x - round(x)) < 1e-12 and x < 0.5:
        raise PoleError(f"gamma pole at {x}")
    y = tau + 1.0
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


_SLAB_CELLS = 2 ** 13
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _slab_min(margin, alphas, taus, xis):
    """Each alpha's smallest margin over its own (tau, xi) grid, with a row
    of ``taus`` per alpha, in one array call: rows (margin, tau, xi)."""
    a, t = alphas[:, None, None], taus[:, :, None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # a per-thread state
        m = margin(a, _ts_array(a, t, xis), _tb_array(a, t, xis), xis).reshape(len(alphas), -1)
    rows, i = np.arange(len(alphas)), np.argmin(m, axis=1)
    return np.stack([m[rows, i], taus[rows, i // len(xis)], xis[i % len(xis)]])


def _scan(region: _Region, density: int):
    """Per-alpha midpoint scan of a region: the grid minimum of its margin
    and the (alpha, tau, xi) where it occurred.  Slabs of whole alphas of
    about _SLAB_CELLS cells run on a thread per usable CPU when there is more
    than one: numpy keeps the GIL on loops of a few hundred elements."""
    xis = _midgrid(*region.xis, density)
    alphas = _midgrid(*region.alphas, density)
    taus = np.array([np.concatenate([_midgrid(lo, hi, density) for lo, hi in region.tau_windows(a)])
                     for a in alphas])
    n = min(len(alphas), max(1, taus.size * len(xis) // _SLAB_CELLS))
    slabs = ([region.margin] * n, np.array_split(alphas, n), np.array_split(taus, n), [xis] * n)
    if n == 1 or _WORKERS == 1:
        parts = list(map(_slab_min, *slabs))
    else:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(_WORKERS) as pool:  # read in slab order: the first error is raised
            parts = list(pool.map(_slab_min, *slabs))
    worst, arg = math.inf, None
    for a, m, tau, xi in zip(alphas, *np.concatenate(parts, axis=1)):
        if m < worst:  # a NaN row minimum fails this and is skipped
            worst = float(m)
            arg = (float(a), float(tau), float(xi))
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


def _check_density(caller: str, d) -> None:
    if not is_integer(d) or d < 20:
        raise DomainError(f"{caller} requires an integer grid_density >= 20, got {d!r}")


def inequality_scan(region: str, grid_density: int = 40) -> VerificationReport:
    """Evaluate one inequality estimate on a midpoint grid of its stated
    region; reports the minimum margin and where it occurred (violations are
    content, not errors)."""
    _check_density("inequality_scan", grid_density)
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
    within one cell of the known touching point (xi = 0, tau = 1 + alpha_c);
    it refuses an empty set of alphas and any alpha outside (0, 1).
    """
    _check_density("no_solution_certificate", grid_density)
    regime = regime.upper()
    if regime == "LOW":
        worst, arg = _scan(_LOW, grid_density)
        return VerificationReport.from_margin(
            "NO_SOLUTION_LOW", f"{_LOW.grid}, {grid_density}^3 cells", worst, 1e-3, arg)
    if regime == "HIGH":
        if len(alphas) == 0 or not all(0.0 < a < 1.0 for a in alphas):
            raise DomainError(f"the HIGH certificate requires alphas in (0, 1), got {alphas!r}")
        # the touching point sits exactly at xi = 0, so the frequency grid
        # keeps that row; the tau grid stays at cell midpoints
        taus = _midgrid(1.0, 2.0, grid_density)
        xis = np.linspace(0.0, _XI_FAR, grid_density)
        tau_cell, xi_cell = 1.0 / grid_density, _XI_FAR / grid_density
        rows = _slab_min(_gap, np.array(alphas, dtype=float), np.tile(taus, (len(alphas), 1)), xis)
        overall_min, arg = math.inf, None
        localized, details = True, []
        for a, gap, tau, xi in zip(alphas, *rows):
            tau_star = 1.0 + alpha_c(a)
            ok = abs(tau - tau_star) <= tau_cell and xi <= xi_cell
            localized &= ok
            details.append(f"alpha={a}: argmin (tau={tau:.4f}, xi={xi:.4f}) "
                           f"target tau={tau_star:.4f} ok={ok}")
            if gap < overall_min:
                overall_min = float(gap)
                arg = (float(a), float(tau), float(xi))
        return VerificationReport(
            name="NO_SOLUTION_HIGH",
            grid=f"tau x xi midpoint grid, {grid_density}^2 cells per alpha; " + "; ".join(details),
            tolerance=0.0,
            min_margin=overall_min,
            argmin=arg,
            passed=localized,
        )
    raise DomainError(f"unknown regime {regime!r}")
