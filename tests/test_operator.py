import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import hyp1f1

from whml import halfline, quadrature
from whml.errors import AccuracyError, DomainError, ResolutionError
from whml.gridfn import GridFunction
from whml.halfline import (
    _moment_tables,
    _probe_panels,
    _profile,
    _rl_of_callable,
    _shared_panels,
    apply_fourier,
    apply_singular,
    caputo_derivative,
    mellin_difference_residual,
    quadratic_form,
    rl_integral,
    rl_integral_grid,
)
from whml.kernel import KernelParams, kernel_m, potential_full, potential_on_grid


@pytest.fixture(scope="module")
def u_smooth():
    return GridFunction.from_function(lambda x: x * x * math.exp(-x), 32.0, 4096)


@pytest.fixture(scope="module")
def u_short():
    return GridFunction.from_function(lambda x: x * x * math.exp(-x), 8.0, 1024)


class TestApplySingular:
    def test_zero_function(self):
        z = GridFunction(np.zeros(256), 0.05)
        assert apply_singular(z, 1.0, KernelParams(0.3)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_fourier_route(self, u_smooth):
        for a in (0.25, 0.5, 0.75):
            k = KernelParams(a)
            au = apply_fourier(u_smooth, k)
            for x in (1.0, 2.0, 3.0, 5.0, 8.0):
                assert abs(apply_singular(u_smooth, x, k) - au(x)) < 1e-3

    def test_hypersingular_regime_is_finite(self, u_smooth):
        val = apply_singular(u_smooth, 1.0, KernelParams(0.75))
        assert math.isfinite(val)

    def test_domain(self, u_smooth):
        with pytest.raises(DomainError):
            apply_singular(u_smooth, 0.0, KernelParams(0.3))
        with pytest.raises(DomainError):
            apply_singular(u_smooth, 17.0, KernelParams(0.3))


def _quad_oracle(u, x, k, eps):
    """u(x) + integral_eps^inf G(w) m(w) dw by scipy's QUADPACK on scalar
    spline and kernel values, with G = 2u(x) - u(x + w) - u(x - w) below x
    and u(x) - u(x + w) above.  Each piece between consecutive node offsets
    |x - x_i| (where G has a kink) gets its own adaptive call; beyond L - x
    the integrand is u(x) m(w)."""
    ux = u(x)
    top = u.length - x
    cuts = np.abs(x - u.xs)
    cuts = np.unique(np.concatenate([[eps, x, top], cuts[(cuts > eps) & (cuts < top)]]))

    def g(w):
        return (2.0 * ux if w < x else ux) - u(x + w) - u(x - w)

    total = ux
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        for a, b in zip(cuts[:-1], cuts[1:]):
            total += integrate.quad(lambda w: g(w) * kernel_m(w, k), a, b,
                                    epsabs=1e-15, epsrel=1e-13, limit=200)[0]
        total += ux * integrate.quad(lambda w: kernel_m(w, k), top, np.inf,
                                     epsabs=1e-15, epsrel=1e-13)[0]
    return total


class TestPanelRule:
    """apply_singular on the spline's own panels (Gauss-Jacobi head, shared
    Gauss-Legendre panels) against QUADPACK and the Fourier route."""

    @pytest.mark.parametrize("a", [0.25, 0.5, 0.75])
    @pytest.mark.parametrize("x", [0.7, 2.0, 3.3])
    def test_truncated_integral_matches_quad_oracle(self, a, x):
        # the full value against QUADPACK's integral truncated at eps0, half
        # the distance to the nearest node, plus the exact head: below eps0
        # the spline's second difference is -u''(x) w^2, and w = t^(1/(2 - 2a))
        # makes w^2 m(w) dw smooth in t
        u = GridFunction.from_function(lambda t: t * t * math.exp(-t), 16.0, 256)
        k = KernelParams(a)
        eps0 = 0.5 * float(np.min(np.abs(u.xs - x)))
        kappa = 1.0 / (2.0 - 2.0 * a)
        moment = integrate.quad(lambda t: t ** (2.0 * kappa) * kernel_m(t ** kappa, k)
                                * kappa * t ** (kappa - 1.0), 0.0, eps0 ** (1.0 / kappa),
                                epsabs=1e-15, epsrel=1e-13)[0]
        head = -u.derivative(2)(x) * moment
        assert abs(apply_singular(u, x, k) - (_quad_oracle(u, x, k, eps0) + head)) < 1e-10

    def test_probe_on_a_node(self, u_smooth):
        # on a node the near field carries the cubic coefficient's jump; the
        # node is held to the bound its off-node neighbours meet, and it is
        # the limit of the probes beside it
        h = u_smooth.h
        for a in (0.25, 0.5, 0.75):
            k = KernelParams(a)
            au = apply_fourier(u_smooth, k)
            for i in (128, 256, 700):
                x = float(u_smooth.xs[i])
                for y in (x - h / 3.0, x, x + h / 3.0):
                    assert abs(apply_singular(u_smooth, y, k) - au(y)) < 1e-6
                beside = [apply_singular(u_smooth, x + t, k) for t in (-1e-9, 1e-9)]
                assert abs(0.5 * sum(beside) - apply_singular(u_smooth, x, k)) < 1e-11

    def test_gap_to_fourier_falls_with_the_grid(self):
        k = KernelParams(0.75)
        gaps = []
        for n in (512, 1024, 2048):
            u = GridFunction.from_function(lambda t: t * t * math.exp(-t), 32.0, n)
            gaps.append(abs(apply_singular(u, 2.0, k) - apply_fourier(u, k)(2.0)))
        assert gaps[1] <= gaps[0] / 4.0
        assert gaps[2] <= gaps[1] / 4.0

    def test_near_boundary_matches_fourier_route(self, u_smooth):
        # below x = 0.5 the Fourier route's resolution sets the gap; each
        # bound is about 10x the gap at x = 0.1 on n = 4096 (7.8e-9, 2.0e-7,
        # 5.2e-6, 1.2e-4), and at x = 0.1 the gap shrinks at least 4x at
        # n = 8192
        fine = GridFunction.from_function(lambda t: t * t * math.exp(-t), 32.0, 8192)
        for a, bound in ((0.25, 1e-7), (0.5, 2e-6), (0.75, 1e-4), (0.99, 2e-3)):
            k = KernelParams(a)
            au = apply_fourier(u_smooth, k)
            gaps = {x: abs(apply_singular(u_smooth, x, k) - au(x)) for x in (0.1, 0.2, 0.3)}
            assert max(gaps.values()) <= bound
            fine_gap = abs(apply_singular(fine, 0.1, k) - apply_fourier(fine, k)(0.1))
            assert fine_gap <= gaps[0.1] / 4.0

    def test_second_probe_makes_no_quadrature_call(self, u_smooth, monkeypatch):
        k = KernelParams(0.45)
        apply_singular(u_smooth, 1.7, k)

        def refuse(*args, **kwargs):
            raise AssertionError("quadrature.quad called")

        monkeypatch.setattr(quadrature, "quad", refuse)
        assert math.isfinite(apply_singular(u_smooth, 5.3, k))


_PANEL_L = 16.0


def _panel_edges():
    return _shared_panels(KernelParams(0.5), _PANEL_L)[0]


@st.composite
def _probe_and_lo(draw):
    """(x, lo) with 0 < lo <= x < L/2: lo a fraction of x, a shared edge, or
    below the first shared edge 2^-30."""
    half = _PANEL_L / 2.0
    kind = draw(st.sampled_from(["fraction", "edge", "tiny"]))
    if kind == "fraction":
        x = draw(st.floats(0.0, half, exclude_min=True, exclude_max=True))
        lo = x * draw(st.floats(0.0, 1.0, exclude_min=True))
        return x, max(lo, math.ulp(0.0))
    if kind == "edge":
        edges = _panel_edges()
        lo = float(edges[draw(st.integers(0, int(np.sum(edges < half)) - 1))])
    else:
        lo = draw(st.floats(0.0, 2.0 ** -30, exclude_min=True, exclude_max=True))
    return draw(st.floats(lo, half, exclude_max=True)), lo


class TestProbePanels:
    @given(_probe_and_lo())
    @example((0.7, 2.0 ** -5))
    @example((0.5, 0.5))
    @example((2.0 ** -31, 2.0 ** -40))
    @example((3.0, 5e-324))
    @settings(max_examples=300, deadline=None)
    def test_pieces_tile_lo_to_L_and_hold_no_break(self, case):
        x, lo = case
        edges = _panel_edges()
        keep, own_lo, own_hi = _probe_panels(x, _PANEL_L, lo, edges)
        starts = np.concatenate([edges[:-1][keep], own_lo])
        ends = np.concatenate([edges[1:][keep], own_hi])
        order = np.argsort(starts)
        starts, ends = starts[order], ends[order]
        assert starts[0] == lo and ends[-1] == _PANEL_L
        assert np.array_equal(starts[1:], ends[:-1]) and np.all(starts < ends)
        breaks = np.concatenate([[lo, x, _PANEL_L - x], edges])
        assert not np.any((starts[:, None] < breaks) & (breaks < ends[:, None]))
        # below the first shared edge the pieces are geometric, ratio at most 2
        below = ends <= edges[0]
        assert np.all(ends[below] <= 2.0 * starts[below])


class TestApplyFourier:
    def test_zero_function(self):
        z = GridFunction(np.zeros(256), 0.05)
        az = apply_fourier(z, KernelParams(0.4))
        assert np.max(np.abs(az.samples)) == 0.0

    def test_refinement_reaches_convergence_floor(self):
        # the two routes disagree at the level of their quadrature and
        # extrapolation floors; refinement must not grow the disagreement
        # and the floor sits orders of magnitude below the route tolerance
        k = KernelParams(0.75)
        errs = []
        for n in (512, 1024, 2048):
            u = GridFunction.from_function(lambda x: x * x * math.exp(-x), 32.0, n)
            au = apply_fourier(u, k)
            errs.append(abs(apply_singular(u, 2.0, k) - au(2.0)))
        assert errs[1] <= 1.25 * errs[0]
        assert errs[2] <= 1.25 * errs[1]
        assert max(errs) < 1e-5

    def test_jump_input_is_resolution_limited(self):
        # a nonzero boundary value puts spectral energy above 3/4 Nyquist at
        # any sane resolution; the contract reports this rather than
        # returning Gibbs-polluted values
        g = GridFunction.from_function(lambda x: math.exp(-x * x), 32.0, 4096)
        with pytest.raises(ResolutionError):
            apply_fourier(g, KernelParams(0.3))

    def test_smooth_gaussian_pair_dual_route(self):
        # difference of Gaussians vanishes at the origin, so both routes
        # apply; agreement at the 1e-4 level at an interior probe
        u = GridFunction.from_function(
            lambda x: math.exp(-x * x) - math.exp(-2.0 * x * x), 32.0, 4096)
        k = KernelParams(0.3)
        au = apply_fourier(u, k)
        assert abs(apply_singular(u, 1.0, k) - au(1.0)) < 1e-4


class TestQuadraticForm:
    def test_zero(self):
        for a in (0.05, 0.4, 0.95):
            z = GridFunction(np.zeros(256), 0.05)
            assert quadratic_form(z, KernelParams(a)) == 0.0

    def test_dominates_l2(self):
        u = GridFunction.from_function(
            lambda x: math.sin(math.pi * x) if x <= 1.0 else 0.0, 16.0, 2048)
        k = KernelParams(0.4)
        qf = quadratic_form(u, k)
        riemann = float(np.sum(np.abs(u.samples) ** 2) * u.h)
        assert qf >= riemann

    def test_matches_operator_inner_product(self, u_smooth):
        k = KernelParams(0.4)
        qf = quadratic_form(u_smooth, k)
        au = apply_fourier(u_smooth, k)
        inner = float(np.trapezoid(au.samples * u_smooth.samples, dx=u_smooth.h))
        assert abs(qf - inner) < 1e-3


def _form_by_quad(u, k):
    """The energy form by QUADPACK, the adaptive route quadratic_form took
    before its panel sum: l2 plus integral_0^L P(w) m(w) dw, P the trapezoid
    sum of |u(x_i + w) - u_i|^2 from array spline calls and m from scalar
    kernel_m calls, plus l2 integral_L^inf m, where P is l2.  The head [0, 1/2] runs in t = w^(2 - 2 alpha), where the
    integrand is bounded.

    Two changes make it an oracle at every alpha.  Below w = h the
    differences are u' w + u'' w^2 / 2 + u''' w^3 / 6 from the derivative
    splines at the nodes: at alpha = 0.95 the head reads w = t^10, where a
    difference of spline values has no digit left.  And there the last
    node's (h/2) |u(L)|^2, whose integral against m diverges, is left out,
    as quadratic_form leaves it out."""
    xs, vals, h = u.xs, u.samples, u.h
    taylor = [u.derivative(q)(xs[:-1]) / math.factorial(q) for q in (3, 2, 1)]
    weights = np.full(u.n, h)
    weights[[0, -1]] = 0.5 * h

    def profile(w):
        if w < h:
            d = ((taylor[0] * w + taylor[1]) * w + taylor[2]) * w
            return float(weights[:-1] @ np.abs(d) ** 2)
        return float(weights @ np.abs(u(xs + w) - vals) ** 2)

    kappa = 1.0 / (2.0 - 2.0 * k.alpha)

    def head(t):
        w = t ** kappa
        return profile(w) * kernel_m(w, k) * kappa * t ** (kappa - 1.0)

    opts = dict(epsabs=1e-15, epsrel=1e-12, limit=400)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        near = integrate.quad(head, 0.0, 0.5 ** (1.0 / kappa), points=[h ** (1.0 / kappa)],
                              **opts)[0]
        far = integrate.quad(lambda w: profile(w) * kernel_m(w, k), 0.5, u.length,
                             points=[1.0, 2.0, 4.0], **opts)[0]
        # beyond L every shifted value has left the grid: the profile is l2
        beyond = integrate.quad(lambda w: kernel_m(w, k), u.length, np.inf, **opts)[0]
    l2 = float(weights @ np.abs(vals) ** 2)
    return l2 + near + far + l2 * beyond


def _sine_bump(length=16.0):
    return GridFunction.from_function(
        lambda x: math.sin(math.pi * x) if x <= 1.0 else 0.0, length, 2048)


class TestFormPanelSum:
    """quadratic_form as an exact sum over the spline's panels, against the
    adaptive quadrature route."""

    @pytest.mark.parametrize("a", [0.05, 0.4, 0.75, 0.95])
    @pytest.mark.parametrize("n", [17, 2048, 4096])
    def test_matches_quad_route(self, a, n):
        # n = 17 is h = 2: panel 0 takes a Gauss-Jacobi head and geometric panels
        u = GridFunction.from_function(lambda x: x * x * math.exp(-x), 32.0, n)
        k = KernelParams(a)
        assert quadratic_form(u, k) == pytest.approx(_form_by_quad(u, k), rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("a", [0.4, 0.95])
    def test_sine_bump_matches_quad_route(self, a):
        u = _sine_bump()
        k = KernelParams(a)
        assert quadratic_form(u, k) == pytest.approx(_form_by_quad(u, k), rel=1e-10, abs=0.0)

    def test_counts_the_offsets_beyond_L(self):
        # on [0, 12] the offsets w > L, where the profile is l2, carry 6e-8 of Q
        u = _sine_bump(12.0)
        k = KernelParams(0.4)
        tail = u.h * float(np.sum(u.samples ** 2)) * -potential_full(u.length, k)
        assert tail > 1e-8 * quadratic_form(u, k)
        assert quadratic_form(u, k) == pytest.approx(_form_by_quad(u, k), rel=1e-10, abs=0.0)

    def test_profile_table_is_the_profile(self):
        # at w = 1e-6 h the profile is 1e-17 of l2, below the rounding of
        # the expanded sums: panel 0 holds only because it is summed directly
        u = GridFunction.from_function(lambda x: 1e6 * math.exp(-((x - 8.0) / 0.2) ** 2),
                                       32.0, 4096)
        l2, g = _profile(u)
        h = u.h
        for j, s in ((0, 1e-6), (0, 0.3), (0, 0.7), (5, 0.5), (100, 0.25), (3000, 0.9)):
            w = (j + s) * h
            direct = float(np.trapezoid((u(u.xs + w) - u.samples) ** 2, dx=h))
            assert g[:, j] @ (s * h) ** np.arange(7.0) == pytest.approx(direct, rel=1e-6)

    def test_refuses_a_jump_at_L(self):
        # x^2 e^-x is 2.1e-2 at L = 8: the zero extension jumps there
        u = GridFunction.from_function(lambda x: x * x * math.exp(-x), 8.0, 2048)
        with pytest.raises(DomainError, match="does not vanish at x = L"):
            quadratic_form(u, KernelParams(0.4))

    def test_no_quadrature_and_no_spline_call(self, monkeypatch):
        u = _sine_bump()
        u._cubic()

        def refuse(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(quadrature, "quad", refuse)
        monkeypatch.setattr(GridFunction, "_evaluate", refuse)
        assert quadratic_form(u, KernelParams(0.35)) > 0.0


def _tail_by_mpmath(length: float, a: float) -> float:
    """integral_L^inf m by 30-digit mpmath through the subordination
    integral, (alpha / (2 Gamma(1 - alpha))) integral_0^inf e^-s s^(-1 - alpha)
    erfc(L / (2 sqrt(s))) ds, split around its saddle at s = L/2.  Up to
    L = 40 it agrees with mpmath.quad of c y^-nu K_nu(y) to 1e-17, at a
    hundredth of the time (mpmath's K_1, alpha = 1/2, takes up to 0.1 s a
    value)."""
    with mp.workdps(30):
        a, x = mp.mpf(a), mp.mpf(length)

        def f(s):
            return mp.exp(-s) * s ** (-1 - a) * mp.erfc(x / (2 * mp.sqrt(s)))

        points = sorted({mp.mpf(0), mp.mpf(1), x * x / 4, x * x, 4 * x * x,
                         x / 8, x / 4, x / 2, x, 2 * x, 4 * x})
        return float(a / (2 * mp.gamma(1 - a)) * mp.quad(f, points + [mp.inf]))


@pytest.fixture
def fresh_tables():
    """An empty kernel-table cache before and after the test."""
    _moment_tables.cache_clear()
    yield
    _moment_tables.cache_clear()


class TestKernelTable:
    """The one kernel table per (alpha, h, n): its tail beyond L, the
    potential apply_fourier reads from it, its cache, and its error
    estimate."""

    @pytest.mark.parametrize("a", [0.05, 0.5, 0.95])
    @pytest.mark.parametrize("length", [0.5, 12.0, 32.0, 40.0])
    def test_tail_to_rounding(self, length, a):
        assert halfline._tail(KernelParams(a), length) == pytest.approx(
            _tail_by_mpmath(length, a), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("length", [64.0, 100.0, 200.0])
    def test_tail_beyond_the_unit_panels(self, length):
        # panels of width 8 beyond 48 keep the rule at rounding where m is
        # e^-L small (doubling widths were 3.7e-8 off at L = 100 and 2e-2 at
        # 200); against quarter-width panels at 24 points
        k = KernelParams(0.5)
        ends = np.arange(length, halfline._TAIL_END, 0.25)
        (_, wm), = halfline._weighted_panels(ends[:-1], ends[1:], k, (24,))
        assert halfline._tail(k, length) == pytest.approx(wm.sum(), rel=1e-14, abs=0.0)

    def test_probes_and_table_read_one_tail(self, u_smooth):
        k = KernelParams(0.3)
        table_tail = _moment_tables(k, u_smooth.h, u_smooth.n - 1)[2]
        assert halfline._shared_panels(k, u_smooth.length)[2] == table_tail

    @pytest.mark.parametrize("a", [0.05, 0.25, 0.5, 0.75, 0.95])
    @pytest.mark.parametrize("n", [17, 2048, 4096])
    def test_potential_matches_oracles(self, n, a):
        # against the 12-point panels between nodes (every node up to L/2,
        # x = 0 read at h/2) to 1e-10, and QUADPACK at a sample of them to
        # potential_full's own epsrel, which is relative alone
        k = KernelParams(a)
        h = 32.0 / (n - 1)
        potential = _moment_tables(k, h, n - 1)[3]
        xs = h * np.arange(n)
        xs[0] = 0.5 * h
        half = xs <= 16.0
        assert potential[half] == pytest.approx(potential_on_grid(xs, k)[half], rel=1e-10, abs=0.0)
        for i in np.unique(np.linspace(0, np.count_nonzero(half) - 1, 12).astype(int)):
            want = potential_full(float(xs[i]), k)
            assert potential[i] == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_second_fourier_call_makes_no_kernel_call(self, u_smooth, monkeypatch):
        k = KernelParams(0.35)
        first = apply_fourier(u_smooth, k)

        def refuse(*args, **kwargs):
            raise AssertionError("called")

        monkeypatch.setattr(halfline, "kernel_m", refuse)
        monkeypatch.setattr(quadrature, "quad", refuse)
        assert apply_fourier(u_smooth, k).samples.tobytes() == first.samples.tobytes()

    def test_estimate_fails_on_a_corrupt_rule(self, u_smooth, monkeypatch, fresh_tables):
        # 24-point weights off by 1e-4 show on the checked panels near the
        # origin, which carry a large share of the form
        rule = halfline._gauss_legendre

        def corrupt(order):
            s, wt = rule(order)
            return s, wt * (1.0 + 1e-4) if order == 24 else wt

        monkeypatch.setattr(halfline, "_gauss_legendre", corrupt)
        with pytest.raises(AccuracyError, match="rule orders disagree"):
            quadratic_form(u_smooth, KernelParams(0.4))


RL_ORDERS = (0.05, 0.3, 0.8, 1.0, 1.1, 1.7, 1.95)


def _rl_points(g):
    """Nodes and points between them: the first panel (m = 0), early, middle
    and late panels, and the last panel."""
    n, h = g.n, g.h
    nodes = [g.xs[1], g.xs[2], g.xs[n // 3], g.xs[n // 2], g.xs[n - 2]]
    between = [0.37 * h, 1.5 * h, (n // 4 + 0.5) * h, 1.1, g.length - 0.4 * h]
    return [float(x) for x in nodes + between]


def _rl_fft_oracle(u, gamma):
    """I^gamma u at every node by the FFT convolution of the coefficient rows
    with the weight rows (Hairer, Lubich and Schlichte 1985): the node
    table's oracle.  Its rounding error is absolute, about machine epsilon
    times the largest node sum, so it is held to the table in absolute
    terms only."""
    c = u._cubic().c[::-1] * u.h ** np.arange(4.0)[:, None]
    w = halfline._node_weights(gamma, u.n)
    size = 1 << (2 * u.n - 3).bit_length()  # power of two >= linear convolution length
    spectrum = np.sum(np.fft.rfft(c, size) * np.fft.rfft(w, size), axis=0)
    sums = np.fft.irfft(spectrum, size)[:u.n - 1]
    return np.concatenate(([0.0], sums)) * (u.h ** gamma / math.gamma(gamma))


class TestExactRiemannLiouville:
    @pytest.mark.parametrize("gamma", RL_ORDERS)
    @pytest.mark.parametrize("n", [768, 1024])
    def test_matches_quadrature_route(self, n, gamma):
        # the quad route integrates the same spline adaptively, independently
        # of the incomplete-beta weights
        g = GridFunction.from_function(lambda x: x * x * math.exp(-x), 8.0, n)
        for x in _rl_points(g):
            assert abs(rl_integral(g, x, gamma) - _rl_of_callable(g, x, gamma)) < 1e-9

    def test_n768_has_nodes_off_the_integer_grid(self):
        # x_j / h is not an integer at some nodes of this grid; a call at
        # such a node still reads the node table, and a call a few ulp off
        # it takes the between-nodes route and agrees with the table
        g = GridFunction.from_function(lambda x: x * x * math.exp(-x), 8.0, 768)
        t = g.xs / g.h
        off = np.flatnonzero(t != np.floor(t))
        assert off.size == 89
        table = halfline._rl_node_table(g, 0.3)
        for j in off:
            x = float(g.xs[j])
            assert rl_integral(g, x, 0.3) == table[j]
            for y in (x - 4.0 * math.ulp(x), x + 4.0 * math.ulp(x)):
                assert y / g.h != int(y / g.h)  # theta != 0: between nodes
                assert abs(rl_integral(g, y, 0.3) - table[j]) < 1e-13

    @pytest.mark.parametrize("gamma", RL_ORDERS)
    @pytest.mark.parametrize("n", [768, 2048])
    def test_grid_equals_pointwise(self, n, gamma):
        g = GridFunction.from_function(lambda x: x * x * math.exp(-x), 8.0, n)
        grid = rl_integral_grid(g, gamma)
        assert grid.h == g.h and grid.samples[0] == 0.0
        assert np.max(np.abs(grid.samples - _rl_fft_oracle(g, gamma))) < 1e-13

    def test_node_call_uses_no_quadrature(self, u_short, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature.quad called")

        monkeypatch.setattr(quadrature, "quad", refuse)
        for x in (u_short.xs[1], u_short.xs[500], 1.234):
            rl_integral(u_short, float(x), 0.3)
        rl_integral_grid(u_short, 0.3)

    def test_rejects_bad_orders(self, u_short):
        for gamma in (0.0, 2.0):
            with pytest.raises(DomainError):
                rl_integral_grid(u_short, gamma)


def _rl_node_reference(u, m, gamma):
    """The per-call node sum the node table replaced: node m's four sums
    over the panels below it against the reversed weights W_k(m..1), each
    reduced by np.sum on its own."""
    c = u._cubic().c[::-1]
    w = halfline._node_weights(gamma, u.n)[:, :m][:, ::-1]
    sums = np.sum(c[:, :m] * w, axis=1)
    return float(sums @ u.h ** (np.arange(4.0) + gamma)) / math.gamma(gamma)


class TestRiemannLiouvilleNodeTable:
    """rl_integral at a node reads one cached table per (grid function, gamma)."""

    @pytest.mark.parametrize("gamma", [0.05, 0.3, 0.7, 1.5, 1.95])
    @pytest.mark.parametrize("n", [768, 2048, 4096])
    def test_every_node_matches_per_call_sum(self, n, gamma):
        # relative per node, the first nodes included, where the FFT route
        # (absolute error) is up to 6.2e-4 relative off at gamma = 1.95
        g = GridFunction.from_function(lambda x: x * x * math.exp(-x), 8.0, n)
        nodes = range(1, n - 1)
        got = np.array([rl_integral(g, float(g.xs[m]), gamma) for m in nodes])
        ref = np.array([_rl_node_reference(g, m, gamma) for m in nodes])
        rel = np.abs(got - ref) / np.abs(ref)
        assert np.max(rel[:8]) <= 4e-15
        assert np.max(rel) <= 4e-15

    def test_second_call_builds_nothing(self, monkeypatch):
        g = GridFunction.from_function(lambda x: x * x * math.exp(-x), 8.0, 256)
        first = rl_integral(g, float(g.xs[100]), 0.6)

        def refuse(*args, **kwargs):
            raise AssertionError("table rebuilt")

        monkeypatch.setattr(np, "convolve", refuse)
        monkeypatch.setattr(halfline, "_node_weights", refuse)
        assert rl_integral(g, float(g.xs[100]), 0.6) == first
        rl_integral(g, float(g.xs[7]), 0.6)
        rl_integral(g, float(g.xs[254]), 0.6)

    def test_table_is_read_only_and_per_order(self):
        g = GridFunction.from_function(lambda x: x * x * math.exp(-x), 8.0, 256)
        rl_integral(g, float(g.xs[10]), 0.6)
        table = g._cache[("rl", 0.6)]
        assert not table.flags.writeable
        assert table.shape == (g.n,) and table[0] == 0.0
        rl_integral(g, float(g.xs[10]), 0.9)
        assert g._cache[("rl", 0.6)] is table
        assert g._cache[("rl", 0.9)] is not table

    def test_checks_hold_once_a_table_exists(self):
        g = GridFunction.from_function(lambda x: x * x * math.exp(-x), 8.0, 256)
        x = float(g.xs[10])
        rl_integral(g, x, 0.6)
        for gamma in (0.0, 2.0, 2.5):
            with pytest.raises(DomainError, match="0 < gamma < 2"):
                rl_integral(g, x, gamma)
        for bad_x in (0.0, g.length, -1.0):
            with pytest.raises(DomainError, match="0 < x < L"):
                rl_integral(g, bad_x, 0.6)

    @pytest.mark.parametrize("gamma", [0.3, 0.8, 1.5])
    def test_nodes_match_closed_form(self, gamma):
        # I^g (x^2 e^-x) = x^(g+2) 2/Gamma(g+3) 1F1(3; g+3; -x)
        g = GridFunction.from_function(lambda x: x * x * math.exp(-x), 8.0, 2048)
        xs = g.xs[1:-1]
        got = np.array([rl_integral(g, float(x), gamma) for x in xs])
        exact = xs ** (gamma + 2.0) * 2.0 / math.gamma(gamma + 3.0) * hyp1f1(3.0, gamma + 3.0, -xs)
        assert np.max(np.abs(got - exact)) < 1e-9


def _caputo_reference(u, x, gamma):
    """The per-call Caputo rule the node table replaced: the nodes below x
    and x itself, the derivative at each through PPoly, and the order-2
    product integral over them, each panel's ends powered separately."""
    n = 1 if gamma < 1.0 else 2
    beta = n - gamma
    ys = np.append(u.xs[u.xs < x], x)
    f_nodes = u.derivative(n)(ys)
    t_left = x - ys[:-1]
    t_right = x - ys[1:]
    c0 = f_nodes[:-1]
    c1 = np.diff(f_nodes) / np.diff(ys)
    pow_b = t_left ** beta - t_right ** beta
    pow_b1 = t_left ** (beta + 1.0) - t_right ** (beta + 1.0)
    total = float(np.sum((c0 + c1 * t_left) * pow_b / beta - c1 * pow_b1 / (beta + 1.0)))
    return total / math.gamma(beta)


class TestCaputoNodeTable:
    """caputo_derivative reads the grid function's node table and returns
    the per-call rule's bits."""

    @pytest.mark.parametrize("gamma", [0.05, 0.3, 0.5, 0.99, 1.01, 1.4, 1.95])
    def test_bit_identical_to_per_call_rule(self, u_short, gamma):
        rng = np.random.default_rng(int(gamma * 100))
        h, length = u_short.h, u_short.length
        xs = [float(u_short.xs[j]) for j in rng.integers(1, u_short.n - 1, size=8)]
        xs += [float(v) for v in rng.uniform(0.0, h, size=4)]  # first panel
        xs += [float(v) for v in rng.uniform(h, length - h, size=8)]
        xs += [float(v) for v in rng.uniform(length - h, length, size=4)]
        xs += [1e-12, 0.5 * h, h, length - 1e-12]
        for x in xs:
            assert caputo_derivative(u_short, x, gamma) == _caputo_reference(u_short, x, gamma)

    def test_table_is_built_once_per_order(self):
        u = GridFunction.from_function(lambda x: x * x * math.exp(-x), 8.0, 128)
        caputo_derivative(u, 1.3, 0.4)
        table = halfline._node_table(u, 1)
        caputo_derivative(u, 2.7, 0.8)
        assert halfline._node_table(u, 1) is table
        caputo_derivative(u, 2.7, 1.2)
        assert halfline._node_table(u, 2) is not table
        nodes, f, slopes = table
        assert not (f.flags.writeable or slopes.flags.writeable or nodes.flags.writeable)
        assert np.array_equal(f, u.derivative(1)(u.xs))

    @pytest.mark.parametrize("x, a", [(0.7, 0.2), (1.3, 0.6)])
    def test_mellin_residual_bit_identical(self, u_short, x, a):
        gamma = 2.0 * a

        def h(y):
            return 0.0 if y <= 0.0 else _caputo_reference(u_short, y, gamma)

        lhs = x ** (-gamma) * (u_short(x) - u_short(0.0))
        rhs = x ** (-gamma) * _rl_of_callable(h, x, gamma)
        assert mellin_difference_residual(u_short, x, KernelParams(a)) == abs(lhs - rhs)


class TestFractionalCalculus:
    def test_order_one_is_plain_integral(self, u_short):
        from scipy.integrate import quad
        exact, _ = quad(lambda y: y * y * math.exp(-y), 0.0, 2.0)
        assert rl_integral(u_short, 2.0, 1.0) == pytest.approx(exact, abs=1e-9)

    def test_semigroup_composition(self, u_short):
        inner = rl_integral_grid(u_short, 0.3)
        lhs = rl_integral(inner, 0.8, 0.5)
        rhs = rl_integral(u_short, 0.8, 0.8)
        assert abs(lhs - rhs) < 1e-6

    def test_semigroup_random_orders(self, u_short):
        # 20 random (g1, g2) pairs, grouped so each inner grid is reused
        rng = np.random.default_rng(21)
        for g1 in rng.uniform(0.15, 0.9, size=5):
            inner = rl_integral_grid(u_short, float(g1))
            for g2 in rng.uniform(0.15, 0.9, size=4):
                lhs = rl_integral(inner, 1.1, float(g2))
                rhs = rl_integral(u_short, 1.1, float(g1) + float(g2))
                assert abs(lhs - rhs) < 1e-6

    def test_taylor_reconstruction(self):
        u = GridFunction.from_function(lambda x: x * x * math.exp(-x), 8.0, 2048)
        a = 0.2
        gamma = 2.0 * a
        h_vals = [0.0] + [caputo_derivative(u, float(x), gamma)
                          for x in u.xs[1:-1]]
        h_vals.append(h_vals[-1])
        h = GridFunction(np.asarray(h_vals), u.h)
        recon = rl_integral(h, 0.8, gamma)
        assert abs((u(0.8) - u(0.0)) - recon) < 1e-5

    def test_caputo_order_one(self, u_short):
        du = u_short.derivative(1)
        assert caputo_derivative(u_short, 1.3, 1.0) == pytest.approx(
            du(1.3) - du(0.0), abs=1e-10)

    def test_domains(self, u_short):
        with pytest.raises(DomainError):
            rl_integral(u_short, -1.0, 0.5)
        with pytest.raises(DomainError):
            rl_integral(u_short, 1.0, 2.5)
        with pytest.raises(DomainError):
            caputo_derivative(u_short, 9.0, 0.5)


class TestMellinDifference:
    def test_constant_function(self):
        c = GridFunction(np.full(64, 3.0), 0.1)
        assert mellin_difference_residual(c, 0.5, KernelParams(0.3)) == 0.0

    def test_low_order(self):
        u = GridFunction.from_function(lambda x: x * x * math.exp(-x), 8.0, 768)
        assert mellin_difference_residual(u, 0.7, KernelParams(0.2)) < 1e-4

    def test_high_order_with_flat_trace(self):
        u = GridFunction.from_function(lambda x: x * x * math.exp(-x), 8.0, 768)
        assert mellin_difference_residual(u, 0.7, KernelParams(0.6)) < 1e-4

    def test_high_order_requires_flat_trace(self):
        u = GridFunction.from_function(lambda x: x * math.exp(-x), 8.0, 768)
        with pytest.raises(DomainError):
            mellin_difference_residual(u, 0.7, KernelParams(0.6))
