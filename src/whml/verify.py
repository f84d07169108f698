"""Named verification suites behind the command-line `verify` subcommand.

Each suite re-runs the module's dual-route and invariant checks at a
caller-chosen grid density and returns one VerificationReport per check.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .gridfn import GridFunction
from .halfline import (
    apply_fourier,
    apply_singular,
    quadratic_form,
    rl_integral,
    rl_integral_grid,
)
from .kernel import (
    KernelParams,
    bernstein_residual,
    kernel_m,
    kernel_m_oracle,
    killing_coefficient,
    symbol_identity_residual,
)
from .quadrature import quad
from .reports import VerificationReport
from .specfun import principal_power
from .symbols import (
    SpectralParams,
    c1p_inf,
    c2p_inf,
    mellin_symbol_residual,
    sine_ratio,
    wh_c1,
    wh_c2,
)
from .transcend import (
    alpha_c,
    inequality_scan,
    no_solution_certificate,
    te_residual_zero,
)

__all__ = ["SUITES", "run_suite"]

_ALPHA_SET = (0.1, 0.25, 0.5, 0.75, 0.9)


def _worst(samples):
    """Largest residual of the (residual, where) samples, taken in order,
    with the `where` of the first sample that reached it: (0.0, None) when
    no residual exceeds 0."""
    worst, arg = 0.0, None
    for r, where in samples:
        if r > worst:
            worst, arg = r, where
    return worst, arg


def _kernel_rel(y, k):
    m = kernel_m(y, k)
    return abs(m - kernel_m_oracle(y, k)) / m


def suite_kernel(density: int = 20) -> list:
    reports = []
    params = [(a, KernelParams(a)) for a in _ALPHA_SET]

    ys = np.geomspace(1e-3, 20.0, max(7, density // 2))
    worst, arg = _worst((_kernel_rel(y, k), (a, float(y))) for a, k in params for y in ys)
    reports.append(VerificationReport.from_residual(
        "kernel_dual_route", f"log-grid y in [1e-3, 20] x alpha set, {len(ys)} x 5",
        worst, 1e-8, arg))

    xis = np.linspace(0.0, 20.0, max(5, density // 4))
    worst, arg = _worst((symbol_identity_residual(float(xi), k), (a, float(xi)))
                        for a, k in params for xi in xis)
    reports.append(VerificationReport.from_residual(
        "symbol_identity", f"xi in [0, 20] x alpha set, {len(xis)} x 5",
        worst, 1e-5, arg))

    worst = max(bernstein_residual(3.0, KernelParams(0.6)),
                bernstein_residual(0.1, KernelParams(0.2)))
    reports.append(VerificationReport.from_residual(
        "bernstein_identity", "(x, alpha) in {(3, 0.6), (0.1, 0.2)}", worst, 1e-9))

    def killing_residual(a):
        c1a = a * 2.0 ** (2 * a) * math.gamma(a + 0.5) / (
            math.sqrt(math.pi) * math.gamma(1.0 - a))
        oracle = c1a * quad(lambda t: (1.0 + t) ** (-1.0 - 2.0 * a), 0.0, np.inf,
                            epsabs=1e-13, epsrel=1e-12)
        return abs(killing_coefficient(KernelParams(a)) - oracle)

    worst, _ = _worst((killing_residual(a), None) for a in (0.6, 0.75, 0.9))
    reports.append(VerificationReport.from_residual(
        "killing_coefficient", "alpha in {0.6, 0.75, 0.9}, tail quadrature at x=1",
        worst, 1e-8))
    return reports


def suite_operator(density: int = 20) -> list:
    reports = []
    n = max(2048, 64 * density)
    u = GridFunction.from_function(lambda x: x * x * math.exp(-x), 32.0, n)

    def probes():
        for a in (0.25, 0.5, 0.75):
            k = KernelParams(a)
            au = apply_fourier(u, k)
            for x in (1.0, 3.0, 8.0):
                yield abs(apply_singular(u, x, k) - au(x)), (a, x)

    worst, arg = _worst(probes())
    reports.append(VerificationReport.from_residual(
        "operator_dual_route", f"x^2 e^-x on n={n}, probes x in (1,3,8) x alpha set",
        worst, 1e-3, arg))

    k = KernelParams(0.4)
    qf = quadratic_form(u, k)
    au = apply_fourier(u, k)
    ip = float(np.trapezoid(au.samples * u.samples, dx=u.h))
    riemann = float(np.sum(np.abs(u.samples) ** 2) * u.h)
    reports.append(VerificationReport.from_residual(
        "quadratic_form_consistency", f"x^2 e^-x on n={n} at alpha=0.4",
        abs(qf - ip), 1e-3))
    reports.append(VerificationReport.from_margin(
        "quadratic_form_positivity", "energy >= grid Riemann norm",
        qf - riemann, 0.0))

    un = GridFunction.from_function(lambda x: x * x * math.exp(-x), 8.0, 2048)
    inner = rl_integral_grid(un, 0.3)
    resid = abs(rl_integral(inner, 0.8, 0.5) - rl_integral(un, 0.8, 0.8))
    reports.append(VerificationReport.from_residual(
        "fractional_semigroup", "I^0.3 I^0.5 = I^0.8 at x = 0.8", resid, 1e-6))
    return reports


def suite_symbols(density: int = 20) -> list:
    reports = []
    sp = SpectralParams(0.3, 2.0, 1.2)

    worst = max(
        abs(c1p_inf(30.0, sp) - wh_c1(-math.inf, sp)),
        abs(c1p_inf(-30.0, sp) - wh_c1(math.inf, sp)),
        abs(c2p_inf(30.0, sp) - wh_c2(-math.inf, sp)),
        abs(c2p_inf(-30.0, sp) - wh_c2(math.inf, sp)),
    )
    reports.append(VerificationReport.from_residual(
        "junction_limits", "|xi| = 30 against the one-sided limits", worst, 1e-8))

    xis = np.linspace(-3.0, 3.0, max(5, density))

    def arc_deviation(p, arc, limit):
        # with A, B = (g(-inf) +- g(+inf)) / 2 from the one-sided limits, the
        # boundary-segment factor runs on the arc of centre A - i B cot(2 pi / p)
        # and radius |B| / |sin(2 pi / p)|
        arc_sp = SpectralParams(sp.alpha, p, sp.s)
        t = 2.0 * math.pi / p
        g_minus, g_plus = limit(-math.inf, arc_sp), limit(math.inf, arc_sp)
        mid, half = (g_minus + g_plus) / 2.0, (g_minus - g_plus) / 2.0
        dist = np.abs(arc(xis, arc_sp) - (mid - 1j * half / math.tan(t)))
        return np.max(np.abs(dist - abs(half) / abs(math.sin(t))))

    worst = float(np.max([arc_deviation(p, arc, limit) for p in (1.5, 2.5, 3.0, 4.0)
                          for arc, limit in ((c1p_inf, wh_c1), (c2p_inf, wh_c2))]))
    reports.append(VerificationReport.from_residual(
        "loop_arc_invariant",
        f"c1p_inf, c2p_inf on the arc between their limits, (alpha, s) = (0.3, 1.2), "
        f"p in {{1.5, 2.5, 3, 4}}, {xis.size} xi in [-3, 3]", worst, 1e-10))

    rng = np.random.default_rng(7)
    ra, rb, rxi = np.array([(rng.uniform(0.1, 0.9), rng.uniform(0.55, 0.95), rng.uniform(-3, 3))
                            for _ in range(100)]).T
    # the closed form |sin(pi(a - i xi)) / sin(pi(b - i xi))|
    ch = np.cosh(2.0 * math.pi * rxi)
    closed = np.sqrt((ch - np.cos(2.0 * math.pi * ra)) / (ch - np.cos(2.0 * math.pi * rb)))
    worst = float(np.max(np.abs(np.abs(sine_ratio(ra, rb, rxi)) - closed)))
    reports.append(VerificationReport.from_residual(
        "sin_ratio_closed_form", "|sine_ratio| against the cosh/cos closed form, "
        "100 random (a, b, xi)", worst, 1e-12))

    def mellin_samples():
        for _ in range(20):
            gamma = rng.uniform(0.2, 1.8)
            p = rng.uniform(1.2, 5.0)
            rho = rng.uniform(1.0 / p - 0.9, 1.5)
            y = rng.uniform(0.0, 4.0)
            yield mellin_symbol_residual(gamma, rho, y, p), (gamma, rho, y, p)

    worst, arg = _worst(mellin_samples())
    reports.append(VerificationReport.from_residual(
        "mellin_symbol", "20 random (gamma, rho, y, p) samples", worst, 1e-7, arg))

    a, s, m = sp.alpha, sp.s, sp.m

    def c1_residual(xi):
        composed = (
            principal_power(1.0 + xi * xi, a)
            * principal_power(complex(xi, -1.0), s - 2.0 * a - m)
            * principal_power(complex(xi, 1.0), m - s)
        )
        return abs(wh_c1(xi, sp) - composed)

    worst, _ = _worst((c1_residual(rng.uniform(-50.0, 50.0)), None) for _ in range(100))
    reports.append(VerificationReport.from_residual(
        "c1_factorisation", "100 random xi in [-50, 50]", worst, 1e-12))
    return reports


def suite_transcend(density: int = 20) -> list:
    reports = [inequality_scan(region, max(20, density))
               for region in ("TE2", "TE3", "TE4", "TE6", "TE7", "TE8")]
    reports.append(no_solution_certificate("LOW", max(20, density)))
    reports.append(no_solution_certificate("HIGH", max(20, density)))

    def root_residual(a):
        rel = abs(te_residual_zero(1.0 + alpha_c(a), a))
        return rel / abs(math.gamma(2.0 * a) * math.sin(math.pi * a))

    worst, _ = _worst((root_residual(float(a)), None)
                      for a in np.linspace(0.05, 0.95, max(10, density)))
    reports.append(VerificationReport.from_residual(
        "critical_root_residual", "alpha grid against the zero-frequency equation",
        worst, 1e-10))
    return reports


SUITES = {
    "kernel": suite_kernel,
    "operator": suite_operator,
    "symbols": suite_symbols,
    "transcend": suite_transcend,
}


def run_suite(name: str, density: int = 20) -> list:
    if density < 1:
        raise DomainError(f"density must be at least 1, got {density}")
    return SUITES[name](density)
