"""Application of the half-line operator to sampled functions, two ways.

The operator acts as identity plus a singular integral against the jump
kernel; equivalently as a Fourier multiplier on the zero extension plus a
multiplication by the added potential.  Both routes are implemented
independently so that each can serve as the other's oracle.  The
singular-integral route works on the cubic spline's own panels: near the
probe the spline's second difference is exactly -u''(x) w^2, so the
hypersingular head is a Gauss-Jacobi rule with no cutoff; beyond it,
Gauss-Legendre panels whose nodes and kernel weights are shared by every
probe at the same (alpha, L), with an embedded two-order error estimate.
The Fourier route and the energy form read one kernel table per
(alpha, h, n), cached read-only: the panel moments of m at one rule order
(checked against a second on the panels nearest the origin), the integral
of m beyond L, and the added potential at every node, a suffix sum of the
moments plus that tail.  On each panel the L2 profile of the differences
at offset w is a degree-6 polynomial, so the energy form is a sum of its
coefficients (cached per grid function) against the moments, with no
adaptive quadrature.  The fractional integral/derivative pair that links
boundary differences to Mellin kernels lives here as well: the
Riemann-Liouville integral is exact on the cubic spline through
incomplete-beta product weights, with the adaptive quadrature route as its
oracle; a call at a node reads the node table of (grid function, order).
The Caputo derivative is order-2 product integration on a node table of
the derivative, so a call adds only its own partial panel.  The tables of
one grid function (the form's profile coefficients and both node tables)
are kept on it, read-only, through GridFunction.table.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import lru_cache

import numpy as np
from scipy.special import beta as beta_fn, betainc, roots_jacobi

from . import quadrature as q
from .errors import AccuracyError, DomainError, ResolutionError
from .gridfn import GridFunction
# potential_on_grid is no longer called here; it stays importable from this
# module, where perfbench's tracer looks it up
from .kernel import KernelParams, kernel_m, potential_on_grid  # noqa: F401

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
# |u| near L, relative to max |u|, that counts as vanishing there
_VANISH_TOL = 1e-8
_K = np.arange(4.0)  # the powers of a cubic spline panel

# apply_singular: the two orders of each rule, the accuracy it is held to, and
# the layout of the shared panels
_JACOBI_ORDERS = (12, 24)
_PANEL_ORDERS = (12, 24)
_OP_EPSABS = 1e-11
_OP_EPSREL = 1e-9
_MAX_BISECTIONS = 8
_GEOMETRIC_LEVELS = 30
# m has underflowed to 0 here at every alpha (K_nu(y) < 1e-323 past y = 745)
_TAIL_END = 768.0
# the smooth factor w^(1 + 2 alpha) m(w) of the Gauss-Jacobi head carries a
# w^(1 + 2 alpha) term, so the head is kept short
_NEAR_FIELD_MAX = 2.0 ** -5
# the edges of the kernel's panels beyond the near field: geometric
# [2^-j, 2^(1-j)] up to 1, unit panels up to 48 (where m is below 1e-22),
# then width 8, at which the rule stays at rounding on e^-y, to _TAIL_END
_EDGES = np.concatenate([
    2.0 ** -np.arange(float(_GEOMETRIC_LEVELS), 0.0, -1.0),
    np.arange(1.0, 48.0),
    np.arange(48.0, _TAIL_END + 1.0, 8.0),
])
# the kernel table: the powers of s in the form's profile on a panel, the
# panels per kernel call (that keeps nodes and kernel values small) and
# those the error estimate runs at both orders
_POWERS = np.arange(7.0)
_MOMENT_CHUNK = 256
_CHECK_PANELS = 8
_FORM_EPSABS = 1e-10
_FORM_EPSREL = 1e-8


def _read_only(*arrays) -> tuple:
    """The arrays, made read-only: cached tables are shared by every caller."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _gauss_legendre(order: int):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    t, wt = np.polynomial.legendre.leggauss(order)
    return _read_only(0.5 * (t + 1.0), 0.5 * wt)


@lru_cache(maxsize=64)
def _gauss_jacobi(alpha: float, order: int):
    """Nodes s and weights W on [0, 1] with
    integral_0^a w^(1 - 2 alpha) g(w) dw ~ a^(2 - 2 alpha) sum_i W_i g(a s_i)."""
    t, wt = roots_jacobi(order, 0.0, 1.0 - 2.0 * alpha)
    return _read_only(0.5 * (t + 1.0), wt * 0.5 ** (2.0 - 2.0 * alpha))


def _weighted_panels(lo: np.ndarray, hi: np.ndarray, k: KernelParams, orders=_PANEL_ORDERS) -> list:
    """Per order, the Gauss-Legendre nodes on the panels [lo_i, hi_i] and
    their weights times m, one row per panel, from one kernel call."""
    rules = []
    for order in orders:
        s, wt = _gauss_legendre(order)
        width = (hi - lo)[:, None]
        rules.append((lo[:, None] + width * s, width * wt))
    m = kernel_m(np.concatenate([w.ravel() for w, _ in rules]), k)
    out, at = [], 0
    for w, wt in rules:
        out.append((w, wt * m[at:at + w.size].reshape(w.shape)))
        at += w.size
    return out


def _tail(k: KernelParams, x: float) -> float:
    """integral_x^inf m on the panels of _EDGES beyond x at the lower order:
    to rounding for x >= 2^-30 (panel ratios at most 2, widths at most 8)."""
    ends = np.append(x, _EDGES[_EDGES > x])
    (_, wm), = _weighted_panels(ends[:-1], ends[1:], k, _PANEL_ORDERS[:1])
    return float(wm.sum())


@lru_cache(maxsize=32)
def _shared_panels(k: KernelParams, length: float):
    """The panels every probe at (alpha, L) starts from, with their edges
    and integral_L^inf m: those of _EDGES, cut at L."""
    edges = np.append(_EDGES[_EDGES < length], length)
    rules = [_read_only(*rule) for rule in _weighted_panels(edges[:-1], edges[1:], k)]
    return _read_only(edges)[0], rules, _tail(k, length)


def _probe_panels(x: float, length: float, lo: float, edges: np.ndarray):
    """The panels of one probe beyond lo: the shared ones it keeps (a mask
    over the shared panels) and its own, as (lo, hi) arrays.

    One cut list: the shared edges above lo, lo, x and L - x (the second
    difference has a kink or a jump where u(x - w) leaves the grid, w = x,
    and where u(x + w) does, w = L - x), and the geometric cuts lo, 2 lo,
    ... below the first edge.  A piece between two consecutive shared edges
    is a kept shared panel; every other piece is the probe's own."""
    levels = max(math.frexp(edges[0])[1] - math.frexp(lo)[1], 0)
    geo = np.ldexp(lo, np.arange(levels + 1))  # exact doublings of lo
    cuts = np.unique(np.concatenate([edges[edges > lo], [lo, x, length - x], geo[geo < edges[0]]]))
    at = np.searchsorted(edges, cuts)
    on_edge = edges[at] == cuts
    shared = on_edge[:-1] & on_edge[1:]
    keep = np.zeros(edges.size - 1, dtype=bool)
    keep[at[:-1][shared]] = True
    return keep, cuts[:-1][~shared], cuts[1:][~shared]


def _second_difference(u: GridFunction, x: float):
    """(u(x), u''(x), J, delta, G) for a probe at x.

    delta is the distance from x to the nearest other node (at most
    _NEAR_FIELD_MAX), J the jump of the cubic coefficient at x when x is a
    node (else 0), and G(w) the integrand factor 2u(x) - u(x + w) - u(x - w)
    for w < x and u(x) - u(x + w) beyond, for an array of w.

    The C^2 cubic spline is its panel's cubic plus the truncated powers
    J_i (y - x_i)_+^3 right of x and J_i (x_i - y)_+^3 left of x, J_i the
    jump of the cubic coefficient at node x_i.  So for w < x
        G(w) = -u''(x) w^2 - sum_(d_i < w) J_i (w - d_i)^3,   d_i = |x - x_i|,
    which G uses up to w = min(x, 1): there the difference of spline
    values would cancel against a large kernel.
    """
    xs, c = u.xs, u.coefficients()
    j = min(int(np.searchsorted(xs, x, side="right")) - 1, u.n - 2)
    s = x - xs[j]
    ux = u(x)
    u2 = 2.0 * c[2, j] + 6.0 * c[3, j] * s
    delta = min(xs[j + 1] - x, s if s > 0.0 else x - xs[j - 1], _NEAR_FIELD_MAX)
    jump = 0.0 if s > 0.0 else c[3, j] - c[3, j - 1]

    reach = min(x, 1.0)
    lo = max(int(np.searchsorted(xs, x - reach, side="left")), 1)
    hi = min(int(np.searchsorted(xs, x + reach, side="right")), u.n - 1)
    dist = np.abs(x - xs[lo:hi])
    order = np.argsort(dist)
    dist = dist[order]
    jumps = (c[3, lo:hi] - c[3, lo - 1:hi - 1])[order]
    # prefix sums of J_i d_i^p, p = 0..3, led by zeros
    sums = np.zeros((4, dist.size + 1))
    sums[:, 1:] = np.cumsum(jumps * dist ** _K[:, None], axis=1)

    def g(w: np.ndarray) -> np.ndarray:
        vals = u(np.concatenate([x + w, x - w]))
        out = np.where(w < x, 2.0 * ux, ux) - vals[:w.size] - vals[w.size:]
        inner = w < reach
        wi = w[inner]
        s0, s1, s2, s3 = sums[:, np.searchsorted(dist, wi, side="left")]
        out[inner] = -u2 * wi * wi - (((s0 * wi - 3.0 * s1) * wi + 3.0 * s2) * wi - s3)
        return out

    return ux, u2, jump, delta, g


def _near_field(k: KernelParams, u2: float, jump: float, delta: float) -> list:
    """integral_0^delta -(u''(x) w^2 + J w^3) m(w) dw at each Gauss-Jacobi
    order: a rule of weight w^(1 - 2 alpha) on the smooth factor
    w^(1 + 2 alpha) m(w)."""
    a = k.alpha
    ends = np.array([delta])
    scale = ends ** (2.0 - 2.0 * a)
    rules = [_gauss_jacobi(a, order) for order in _JACOBI_ORDERS]
    w = np.concatenate([delta * s for s, _ in rules])
    f = kernel_m(w, k) * w ** (1.0 + 2.0 * a) * (-u2 - jump * w)
    out, at = [], 0
    for s, wt in rules:
        out.append(float(scale @ (f[at:at + s.size].reshape(1, -1) @ wt)))
        at += s.size
    return out


def apply_singular(u: GridFunction, x: float, k: KernelParams) -> float:
    """Pointwise operator value u(x) + integral_0^inf G(w) m(w) dw on the
    cubic spline, with G = 2u(x) - u(x + w) - u(x - w) for w < x and
    u(x) - u(x + w) beyond (u is zero outside [0, L]).

    - Near field [0, delta], delta the distance from x to the nearest
      other node: G is exactly -u''(x) w^2 there (minus J w^3 on a node,
      J the jump of the cubic coefficient), so the hypersingular head is a
      Gauss-Jacobi rule with weight w^(1 - 2 alpha): no cutoff, no
      subtraction, no extrapolation.
    - Beyond delta: Gauss-Legendre panels, geometric up to 1, unit widths
      beyond, with nodes and weight * m shared by every probe at the same
      (alpha, L) (_shared_panels); only the panels holding delta, x and
      L - x are cut (_probe_panels).  The spline is read in one array call
      per pass.
    - u(x) * integral_L^inf m (_tail), cached with the shared panels.

    Each panel runs at two orders.  While their total disagreement exceeds
    max(1e-11, 1e-9 |value|), the panels that hold most of it are bisected;
    AccuracyError after _MAX_BISECTIONS passes.
    """
    if not (0.0 < x < u.length / 2.0):
        raise DomainError("apply_singular requires 0 < x < L/2")
    length = u.length
    ux, u2, jump, delta, g = _second_difference(u, x)
    edges, shared, tail = _shared_panels(k, length)
    keep, own_lo, own_hi = _probe_panels(x, length, delta, edges)
    rules = [(np.concatenate([w[keep], ow]), np.concatenate([wm[keep], owm]))
             for (w, wm), (ow, owm) in zip(shared, _weighted_panels(own_lo, own_hi, k))]
    p_lo = np.concatenate([edges[:-1][keep], own_lo])
    p_hi = np.concatenate([edges[1:][keep], own_hi])

    near = _near_field(k, u2, jump, delta)
    done = ux + ux * tail + near[-1]
    done_err = abs(near[-1] - near[0])
    for bisections in range(_MAX_BISECTIONS + 1):
        gw = g(np.concatenate([w.ravel() for w, _ in rules]))
        sums, at = [], 0
        for w, wm in rules:
            sums.append(np.sum(wm * gw[at:at + w.size].reshape(w.shape), axis=1))
            at += w.size
        err = np.abs(sums[-1] - sums[0])
        value = done + float(np.sum(sums[-1]))
        tol = max(_OP_EPSABS, _OP_EPSREL * abs(value))
        if done_err + float(np.sum(err)) <= tol:
            return value
        # out of passes, or the near field alone is over: bisection cannot help
        if bisections == _MAX_BISECTIONS or done_err > tol:
            break
        # keep the panels of least disagreement while it stays under half the
        # tolerance; bisect the rest
        order = np.argsort(err)
        split = np.ones(err.size, dtype=bool)
        split[order[done_err + np.cumsum(err[order]) <= 0.5 * tol]] = False
        done += float(np.sum(sums[-1][~split]))
        done_err += float(np.sum(err[~split]))
        mid = 0.5 * (p_lo[split] + p_hi[split])
        p_lo = np.concatenate([p_lo[split], mid])
        p_hi = np.concatenate([mid, p_hi[split]])
        rules = _weighted_panels(p_lo, p_hi, k)
    raise AccuracyError(
        f"apply_singular: the rule orders disagree by {done_err + float(np.sum(err)):.3e} "
        f"after {bisections} bisections")


def apply_fourier(u: GridFunction, k: KernelParams) -> GridFunction:
    """Whole-grid operator application: zero-extend to a doubled periodic
    grid, multiply the spectrum by (1 + xi^2)^alpha, restrict, and add the
    potential term, read from the kernel table of (alpha, h, n) that the
    first call at that grid builds: at node x_i, minus the panel integrals
    of m from x_i to L and integral_L^inf m.  The boundary sample x = 0
    reads the potential at h/2 (the true potential diverges there; the
    sample is only meaningful when u(0) = 0).

    Near x = 0 on a coarse grid this route is no oracle for apply_singular:
    for x^2 e^-x on [0, 32] at alpha 0.25 / 0.75 / 0.99 they differ by
    7.7e-5 / 9.2e-3 / 5.3e-2 at x = 0.1 and 3.2e-7 / 3.8e-5 / 3.9e-4 at x = 1
    on 512 points, 7.8e-9 / 5.2e-6 / 1.2e-4 and 2.6e-10 / 2.4e-7 / 6.6e-6 on
    4096; so verify's operator_dual_route probes x >= 1.
    """
    tail = np.max(np.abs(u.samples[int(0.875 * u.n):]))
    scale = np.max(np.abs(u.samples))
    if scale > 0 and tail > _VANISH_TOL * scale:
        raise DomainError("grid function does not vanish near x = L")

    n = u.n
    spectrum = np.fft.fft(np.concatenate([np.zeros(n), u.samples]))

    # energy above 3/4 Nyquist must be negligible or the multiplier output
    # is resolution-limited
    high = np.abs(np.fft.fftfreq(2 * n)) > _ALIAS_BAND * 0.5
    total = float(np.sum(np.abs(spectrum) ** 2))
    if total > 0 and float(np.sum(np.abs(spectrum[high]) ** 2)) > _ALIAS_TOL * total:
        raise ResolutionError("input spectrum carries energy above 3/4 Nyquist")

    xi = 2.0 * math.pi * np.fft.fftfreq(2 * n, d=u.h)
    transformed = np.fft.ifft(spectrum * (1.0 + xi * xi) ** k.alpha).real
    *_, potential = _moment_tables(k, u.h, n - 1)
    return GridFunction(transformed[n:] + u.samples * potential, u.h)


def _profile_table(u: GridFunction):
    """(l2, G) of a grid function: l2 the trapezoid norm squared, and
    G[r, j] the coefficients of the profile on panel j,
    P(j h + s) = sum_r G[r, j] s^r for 0 <= s < h, r = 0..6.

    With trapezoid weights om_i and the panel cubics p_m(s) = sum_k c[k, m] s^k,
    u(x_i + j h + s) is p_(i+j)(s) while i + j <= n - 2 and zero beyond, so
        P = sum_(i <= n-2-j) om_i (p_(i+j)(s) - u_i)^2 + sum_(i > n-2-j) om_i u_i^2.
    Expanded, the squares of the cubics are suffix sums of the products of
    the coefficient rows, the cross terms four correlations of om_i u_i with
    the rows (one FFT size), and the u_i^2 terms add up to l2.  At j = 0 the
    constant row cancels, c[0, i] being u_i, so that column is summed
    directly from the rows k >= 1 and has no r < 2 terms; the last node's
    (h/2) u(L)^2, whose integral against m diverges, is left out.
    """
    n, h = u.n, u.h
    c = u.coefficients()
    om = np.full(n, h)
    om[[0, -1]] *= 0.5
    weighted = om * u.samples
    l2 = float(weighted @ u.samples)
    inner = np.zeros((7, n - 1))  # products of the rows k, l >= 1
    for a in range(1, 4):
        for b in range(1, 4):
            inner[a + b] += c[a] * c[b]
    prod = inner.copy()
    prod[0] += c[0] * c[0]
    prod[1:4] += 2.0 * c[0] * c[1:]
    # sum_(i <= n-2-j) om_i prod[r, i + j]: om_i is h but for om_0 = h/2
    g = h * np.cumsum(prod[:, ::-1], axis=1)[:, ::-1] - 0.5 * h * prod
    size = 1 << (2 * n - 3).bit_length()  # the negative lags do not wrap
    corr = np.fft.irfft(np.fft.rfft(c, size) * np.conj(np.fft.rfft(weighted, size)), size)
    g[:4] -= 2.0 * corr[:, :n - 1]
    g[0] += l2
    g[:, 0] = inner @ om[:-1]
    return l2, g


def _profile(u: GridFunction):
    """(l2, G) of _profile_table, cached on the grid function."""
    return u.table("profile", lambda: _profile_table(u))


@lru_cache(maxsize=32)
def _moment_tables(k: KernelParams, h: float, panels: int):
    """The kernel table of one (alpha, grid), L = panels h: (M, D, T, V).

    M[r, j] = integral_0^h s^r m(j h + s) ds for r = 0..6 and j < panels,
    at the lower rule order.  Panels j >= 1: Gauss-Legendre, one kernel call
    per _MOMENT_CHUNK panels, each weight * m row against the powers of the
    offsets s all panels share.  Panel 0, r >= 2: the Gauss-Jacobi rule of
    weight s^(1 - 2 alpha) on s^(r - 2) s^(1 + 2 alpha) m(s) over a head of
    at most _NEAR_FIELD_MAX (see there), with geometric Gauss-Legendre
    panels from there to h; its r < 2 moments diverge and are left 0.  D,
    the error estimate, is the higher order less M on the first
    _CHECK_PANELS panels: from panel 1 on the orders agree to about 1e-14
    relative on every grid tried (17 to 4096 points, alpha 0.05 to 0.95).
    T = integral_L^inf m (_tail).  V, the potential -integral_x^inf m at the
    nodes, is minus the suffix sums of M[0] and T, x = 0 read at h/2.
    """
    low = np.zeros((_POWERS.size, panels))
    high = np.zeros((_POWERS.size, min(panels, _CHECK_PANELS)))
    levels = max(0, math.ceil(math.log2(h / _NEAR_FIELD_MAX)))
    head = h * 2.0 ** -levels
    geo = head * 2.0 ** np.arange(levels)
    for table, (w, wm) in zip((low, high), _weighted_panels(geo, 2.0 * geo, k)):
        table[2:, 0] = w.ravel() ** _POWERS[2:, None] @ wm.ravel()
    for table, order in zip((low, high), _JACOBI_ORDERS):
        t, wt = _gauss_jacobi(k.alpha, order)
        s = head * t
        f = kernel_m(s, k) * s ** (1.0 + 2.0 * k.alpha) * wt * head ** (2.0 - 2.0 * k.alpha)
        table[2:, 0] += s ** (_POWERS[2:, None] - 2.0) @ f

    def moments(tables, j, orders):
        rules = _weighted_panels(h * j, h * j + h, k, orders)
        for table, order, (_, wm) in zip(tables, orders, rules):
            s, _ = _gauss_legendre(order)
            table[:, j] = ((h * s)[:, None] ** _POWERS).T @ wm.T

    moments((low, high), np.arange(1, high.shape[1]), _PANEL_ORDERS)
    for start in range(high.shape[1], panels, _MOMENT_CHUNK):
        moments((low,), np.arange(start, min(start + _MOMENT_CHUNK, panels)), _PANEL_ORDERS[:1])
    tail = _tail(k, h * panels)
    (_, half), = _weighted_panels(np.array([0.5 * h]), np.array([h]), k, _PANEL_ORDERS[:1])
    panel = np.concatenate([half.sum(axis=1), low[0, 1:]])
    potential = -np.append(np.cumsum(panel[::-1])[::-1] + tail, tail)
    return *_read_only(low, high - low[:, :high.shape[1]]), tail, _read_only(potential)[0]


def quadratic_form(u: GridFunction, k: KernelParams) -> float:
    """Energy form: L2 norm squared plus the symmetric double integral of
    squared differences against the kernel,
        Q(u) = l2 + integral_0^inf P(w) m(w) dw,
    P(w) the trapezoid sum over the nodes of |u(x_i + w) - u_i|^2 (u zero
    beyond L), both on the cubic spline.  Beyond w = L every shifted value
    has left the grid, so P = l2 there and that part is l2 integral_L^inf m.

    On each panel [j h, (j + 1) h) the profile is exactly a degree-6
    polynomial in s = w - j h, so the integral is its coefficients
    (_profile, cached on the grid function) against the kernel table's
    moments and tail (_moment_tables): no adaptive quadrature and no spline
    evaluation.  The coefficients against the table's error estimate give
    AccuracyError when over max(1e-10, 1e-8 |Q|).

    The zero extension of u must not jump at L: DomainError when
    |u(L)| > 1e-8 max |u|, the scale apply_fourier holds the tail to.
    Below that, the last node's term (h/2) |u(L)|^2 at offsets w < h, whose
    integral against m diverges, is left out.
    """
    vals = np.abs(u.samples)
    if vals[-1] > _VANISH_TOL * np.max(vals):
        raise DomainError("quadratic_form: the grid function does not vanish at x = L, "
                          "so its zero extension jumps and the form is infinite")
    l2, g = _profile(u)
    moments, check, tail, _ = _moment_tables(k, u.h, u.n - 1)
    form = l2 + moments.ravel() @ g.ravel() + l2 * tail
    err = abs(check.ravel() @ g[:, :check.shape[1]].ravel())
    if err > max(_FORM_EPSABS, _FORM_EPSREL * abs(form)):
        raise AccuracyError(f"quadratic_form: the rule orders disagree by {err:.3e}")
    return float(form)


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
    return _read_only(_rl_weights(np.arange(1.0, n), gamma))[0]


def _rl_check(gamma: float, caller: str = "rl_integral") -> None:
    """Refuse an order the RL and Caputo routes do not support."""
    if not (0.0 < gamma < 2.0):
        raise DomainError(f"{caller} supports 0 < gamma < 2")


def _rl_node_table(u: GridFunction, gamma: float) -> np.ndarray:
    """I^gamma u at every node (0 at x = 0), built on first use and cached
    read-only per (grid function, order).

    Node m's sum S_k(m) = sum_(j<m) c[k, j] W_k(m - j) is entry m - 1 of the
    direct convolution of c[k] with W_k(1..n-1): four O(n^2) passes, which
    keep each node's value to rounding relative to itself (an FFT's error
    is relative to the largest node sum, so the first nodes would lose it:
    6.2e-4 relative at node 1 for x^2 e^-x on [0, 8], gamma 1.95, 4096
    points).
    """
    def build():
        c = u.coefficients()
        w = _node_weights(gamma, u.n)
        sums = np.array([np.convolve(c[k, :u.n - 1], w[k])[:u.n - 1] for k in range(4)])
        return np.concatenate(([0.0], u.h ** (_K + gamma) @ sums / math.gamma(gamma)))

    return u.table(("rl", gamma), build)


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
    show.  A node (theta == 0, or x equal to a node of u.xs even where x / h
    rounds off the integers) reads the cached node table of (u, gamma):
    its first call builds it from the cached weights W_k(1..n-1) by four
    direct convolutions (about 4 ms on 2048 points, 16 ms on 4096), and
    every node value is within a few ulp of its own per-node sum.
    """
    if not (0.0 < x < u.length):
        raise DomainError("rl_integral requires 0 < x < L")
    _rl_check(gamma)
    t = x / u.h
    m = min(int(t), u.n - 2)
    theta = t - m
    xs = u.xs
    if theta == 0.0 or x == xs[m]:
        return float(_rl_node_table(u, gamma)[m])
    if x == xs[m + 1]:
        return float(_rl_node_table(u, gamma)[m + 1])
    c = u.coefficients()
    w = _rl_weights(np.arange(m, 0, -1) + theta, gamma)
    sums = (np.sum(c[:, :m] * w, axis=1)
            + c[:, m] * theta ** (_K + gamma) * beta_fn(_K + 1.0, gamma))
    return float(sums @ u.h ** (_K + gamma)) / math.gamma(gamma)


def rl_integral_grid(u: GridFunction, gamma: float) -> GridFunction:
    """I^gamma u at every node of u's grid (0 at x = 0, the whole spline
    integral at x = L), as a grid function on the same grid: the cached
    node table of rl_integral, every node within a few ulp of its own
    per-node sum."""
    _rl_check(gamma)
    return GridFunction(_rl_node_table(u, gamma), u.h)


def _node_table(u: GridFunction, order: int):
    """(nodes, f, slopes) of the spline's derivative of the given order,
    kept read-only on the grid function: f its values at every node from
    one array call, slopes those of its linear interpolant on each panel,
    np.diff(f) / np.diff(nodes), and nodes the node array."""
    def build():
        nodes = u.xs
        f = u.derivative(order)(nodes)
        return nodes, f, np.diff(f) / np.diff(nodes)

    return u.table(("nodes", order), build)


def caputo_derivative(u: GridFunction, x: float, gamma: float) -> float:
    """Caputo fractional derivative: the RL integral of order beta = n - gamma
    of the n-th derivative f = u^(n), n = 1 for gamma < 1 and n = 2 for
    gamma > 1, by order-2 product integration (Diethelm, Ford and Freed 2002).

    f is replaced by its piecewise-linear interpolant on the nodes below x
    and x itself, and each panel is integrated against (x - y)^(beta - 1)
    exactly, so the singular endpoint carries no quadrature error.  Only
    the last, partial panel is new at each x: f at every node and the slopes
    of the full panels come from the node table of (u, order), built once,
    and f(x) from the scalar spline path.  One power pass over t = x - y
    serves both ends of every panel, since x - x_(j+1) is both the right end
    of panel j and the left end of panel j + 1.

    gamma = 1 returns u'(x) - u'(0) exactly (the degenerate case of the
    definition); the one-sided derivative at 0 comes from the spline.
    """
    if not (0.0 < x < u.length):
        raise DomainError("caputo_derivative requires 0 < x < L")
    _rl_check(gamma, "caputo_derivative")
    if gamma == 1.0:
        du = u.derivative(1)
        return du(x) - du(0.0)
    n = 1 if gamma < 1.0 else 2
    beta = n - gamma
    nodes, f, slopes = _node_table(u, n)
    m = bisect_left(memoryview(nodes), x)  # the nodes below x
    t = np.empty(m + 1)
    np.subtract(x, nodes[:m], out=t[:m])
    t[m] = 0.0  # x - x
    c0 = f[:m]
    c1 = np.empty(m)
    c1[:m - 1] = slopes[:m - 1]
    c1[m - 1] = (u.derivative(n)(x) - f[m - 1]) / (x - nodes[m - 1])
    pb = t ** beta
    pb1 = t ** (beta + 1.0)
    t_left = t[:m]
    total = float(((c0 + c1 * t_left) * (pb[:-1] - pb[1:]) / beta
                   - c1 * (pb1[:-1] - pb1[1:]) / (beta + 1.0)).sum())
    return total / math.gamma(beta)


def mellin_difference_residual(u: GridFunction, x: float, k: KernelParams) -> float:
    """Defect of the boundary-difference reduction
    x^(-2a) (u(x) - u(0)) = (M_2a h)(x), h the Caputo derivative of order 2a.

    The Mellin kernel side collapses to x^(-2a) times the RL integral of h,
    taken by _rl_of_callable's adaptive quad with caputo_derivative as its
    integrand; for alpha >= 1/2 the reduction needs u'(0) = 0.

    On the spline this checks I^2a D^2a u = u - u(0) (less x u'(0) for
    2a > 1), the semigroup I^2a I^(n - 2a) = I^n, which holds exactly.  So
    the value measures the Caputo product rule's O(h^2) error (for 2a < 1)
    and the outer quad, not the paper's reduction.  For x^2 e^-x on 2048
    points of [0, 8] that quad ends at 5 to 49 times its requested
    tolerance, within _rl_of_callable's 1e6 error-estimate slack.
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
