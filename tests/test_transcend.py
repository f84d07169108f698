import inspect
import math
import threading

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whml import transcend
from whml.errors import DomainError, PoleError
from whml.specfun import AccuracyOverflow
from whml.symbols import SpectralParams, beta_term, sine_ratio
from whml.transcend import (
    alpha_c,
    critical_s,
    inequality_scan,
    no_solution_certificate,
    te_residual_zero,
)


def t_s(alpha, tau, xi):
    """Sine side sin(pi(1 + a - tau - i xi)) / sin(pi(1 + 2a - tau - i xi)),
    as the scans and the loop compute it."""
    return complex(sine_ratio(1.0 + alpha - tau, 1.0 + 2.0 * alpha - tau, xi))


def t_b(alpha, tau, xi):
    """Beta side (sin pi a / pi) B(tau + 1 - 2a + i xi, 2a)."""
    return complex(beta_term(alpha, tau + 1.0 - 2.0 * alpha, xi))


class TestSineRatioSide:
    def test_vanishes_at_tau_equal_alpha(self):
        assert abs(t_s(0.4, 0.4, 0.0)) < 1e-14

    def test_modulus_tends_to_one(self):
        for xi in (10.0, 50.0, 500.0):
            assert abs(t_s(0.3, 0.5, xi)) == pytest.approx(1.0, abs=1e-8)

    def test_conjugate_pairing(self):
        assert t_s(0.3, 0.5, -1.2) == pytest.approx(np.conj(t_s(0.3, 0.5, 1.2)), rel=1e-14)
        assert t_b(0.3, 0.5, -1.2) == pytest.approx(np.conj(t_b(0.3, 0.5, 1.2)), rel=1e-14)

    def test_pole(self):
        # 1 + 2a - tau = 0 at xi = 0: the array code gives a non-finite
        # entry, which the scans read as infinitely apart
        with np.errstate(divide="ignore", invalid="ignore"):
            assert not np.isfinite(t_s(0.25, 1.5, 0.0))

    def test_order_independence(self):
        # boundary-segment values computed in the low window at (a, p, s)
        # and in the high window at (a, p, s + 1) coincide, because only
        # tau enters the sine ratio
        from whml.symbols import c1p_inf, c2p_inf
        low = SpectralParams(0.35, 2.5, 1.1)
        high = SpectralParams(0.35, 2.5, 2.1)
        for xi in (-4.0, 0.0, 2.7):
            assert c1p_inf(xi, low) == pytest.approx(c1p_inf(xi, high), rel=1e-13)
            assert c2p_inf(xi, low) == pytest.approx(c2p_inf(xi, high), rel=1e-13)


class TestBetaSide:
    def test_zero_frequency_value(self):
        from whml.specfun import complex_beta
        a, tau = 0.4, 0.5
        val = t_b(a, tau, 0.0)
        expect = math.sin(math.pi * a) / math.pi * complex_beta(tau + 1 - 2 * a, 2 * a)
        assert val == pytest.approx(expect, rel=1e-13)
        assert val.imag == pytest.approx(0.0, abs=1e-15)
        assert val.real > 0

    def test_gamma_ratio_bound(self):
        a, tau, xi = 0.4, 0.5, 0.3
        sigma = tau + 1.0 - 2.0 * a
        bound = (math.sin(math.pi * a) / math.pi * math.gamma(2 * a)
                 * math.gamma(sigma) / math.gamma(sigma + 2 * a))
        assert abs(t_b(a, tau, xi)) <= bound

    def test_uniform_bound_low_band(self):
        for a in (0.1, 0.3, 0.45):
            for tau in np.linspace(a, 0.999, 7):
                assert abs(t_b(a, float(tau), 0.0)) < 2.0 / math.pi

    def test_pole(self):
        # tau + 1 - 2a = 0 at xi = 0 is the beta function's pole
        with pytest.raises(PoleError):
            t_b(0.25, -0.5, 0.0)


class TestZeroFrequencyEquation:
    def test_origin_root(self):
        assert te_residual_zero(0.0, 0.3) == pytest.approx(0.0, abs=1e-14)

    def test_positive_at_tau_one(self):
        a = 0.3
        expect = math.gamma(2 * a) * math.sin(math.pi * a) * (
            1.0 / (1.0 - 2.0 * a) - 1.0)
        assert te_residual_zero(1.0, a) == pytest.approx(expect, rel=1e-12)
        assert te_residual_zero(1.0, a) > 0

    def test_half_alpha_reduces_to_tangent_equation(self):
        # at alpha = 1/2 the residual is proportional to
        # pi tau cos(pi tau) - sin(pi tau)
        for tau in (1.2, 1.43, 1.7):
            resid = te_residual_zero(tau, 0.5)
            expect = math.pi * tau / math.tan(math.pi * tau) - 1.0
            assert resid == pytest.approx(expect, rel=1e-10)

    def test_poles_flagged(self):
        with pytest.raises(PoleError):
            te_residual_zero(2 * 0.35, 0.35)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_refused(self, tau):
        # refused before the pole guard rounds it
        with pytest.raises(DomainError, match="finite tau and alpha"):
            te_residual_zero(tau, 0.3)

    def test_derivative_sign_on_monotone_regions(self):
        rng = np.random.default_rng(9)
        h = 1e-6
        checked = 0
        while checked < 1000:
            a = float(rng.uniform(0.02, 0.98))
            region = int(rng.integers(0, 3))
            tau = None
            if region == 0 and 2e-3 < a < 0.5:
                tau = float(rng.uniform(1e-3, a - 1e-3))
            elif region == 1 and 1.0 - a - 2e-3 > 0:
                tau = float(rng.uniform(2 * a + 1e-3, 1 + a - 1e-3))
            elif region == 2 and a < 0.498:
                tau = float(rng.uniform(1 + 2 * a + 1e-3, 2 - 1e-3))
            if tau is None:
                continue
            f_plus = te_residual_zero(tau + h, a)
            f_minus = te_residual_zero(tau - h, a)
            assert f_plus - f_minus < 0.0
            checked += 1


class TestCriticalRoot:
    def test_half(self):
        val = alpha_c(0.5)
        assert val == pytest.approx(0.4303, abs=1e-3)
        tau = 1.0 + val
        assert abs(math.tan(math.pi * tau) - math.pi * tau) < 1e-8

    def test_three_quarters(self):
        assert alpha_c(0.75) == pytest.approx(0.726, abs=2e-3)
        assert critical_s(0.75, 2.0) == pytest.approx(2.226, abs=2e-3)

    @pytest.mark.parametrize("p", [1.0, -2.0, math.inf, math.nan, 0.0, 0.5])
    def test_critical_s_refuses_p_outside_one_to_infinity(self, p):
        with pytest.raises(DomainError, match="1 < p < infinity"):
            critical_s(0.5, p)

    def test_gap_shrinks_toward_one(self):
        gaps = [a - alpha_c(a) for a in (0.9, 0.95, 0.99)]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_residual_grid(self):
        for a in np.linspace(0.03, 0.97, 50):
            rel = abs(te_residual_zero(1.0 + alpha_c(float(a)), float(a)))
            rel /= abs(math.gamma(2.0 * a) * math.sin(math.pi * a))
            assert rel < 1e-10

    def test_window(self):
        with pytest.raises(DomainError):
            alpha_c(1.2)

    @pytest.mark.parametrize("a", [1e-8, 1.0 - 1e-7])
    def test_edge_alphas_match_a_40_digit_root(self, a):
        with mp.workdps(40):
            am = mp.mpf(a)
            rhs = mp.gamma(2 * am) * mp.sin(mp.pi * am)
            lo, hi = (mp.mpf(1) if a < 0.5 else 2 * am), 1 + am
            for _ in range(160):
                mid = (lo + hi) / 2
                if mp.gamma(2 * am - mid) * mp.gamma(mid + 1) * mp.sin(mp.pi * (am - mid)) > rhs:
                    lo = mid
                else:
                    hi = mid
            want = lo - 1
        value = alpha_c(a)
        assert 0.0 < value < a
        assert abs(value - want) < 1e-13

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_root_in_window_or_refused(self, a):
        try:
            value = alpha_c(a)
        except DomainError:
            return
        assert 0.0 < value < a


def _bisect_residual(alpha):
    """The reference bisection for alpha_c: every midpoint decided by the
    sign of the guarded residual te_residual_zero."""
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha_c requires 0 < alpha < 1")
    lo = 1.0 if alpha < 0.5 else 2.0 * alpha
    hi = 1.0 + alpha
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
        raise transcend._unresolvable(alpha) from None
    root = 0.5 * (lo + hi) - 1.0
    if not (0.0 < root < alpha):
        raise transcend._unresolvable(alpha)
    return root


def _outcome(f, alpha):
    """The float's bits, or the exception's type and message."""
    try:
        return f(alpha).hex()
    except Exception as exc:  # compared, not swallowed
        return type(exc), str(exc)


class TestRootBitForBit:
    # 5e-324 overflows Gamma(2a) in the constant on x^0, which a window
    # with no float inside never needs; 5e-13 and 0.9999999999997773 are
    # refused by the pole guard of Gamma(2a - tau), near -1 and near 0, and
    # without it would return 2^-51 and a float below alpha
    @pytest.mark.parametrize("a", [5e-324, 5e-13, 1e-12, 1e-9, 1e-8, 0.5,
                                   math.nextafter(0.5, 0.0), 1.0 - 1e-7, 1.0 - 1e-8,
                                   0.9999999999997773, math.nextafter(1.0, 0.0)])
    def test_edge_alphas(self, a):
        assert _outcome(alpha_c, a) == _outcome(_bisect_residual, a)

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=500, deadline=None)
    def test_property(self, a):
        assert _outcome(alpha_c, a) == _outcome(_bisect_residual, a)


class TestFloatAlpha:
    # a numpy scalar alpha is taken as a float once, after the checks
    @pytest.mark.parametrize("a", [0.7, 0.3, 0.5, 1e-8, 5e-13])
    def test_numpy_scalar_alpha_as_the_float(self, a):
        assert _outcome(alpha_c, np.float64(a)) == _outcome(alpha_c, a)
        assert _outcome(lambda a: critical_s(a, 2.0), np.float64(a)) == _outcome(
            lambda a: critical_s(a, 2.0), a)

    def test_root_and_refusal_are_the_floats(self):
        assert type(alpha_c(np.float64(0.7))) is float
        assert type(critical_s(np.float64(0.7), 2.0)) is float
        with pytest.raises(DomainError) as refused:
            alpha_c(np.float64(5e-13))
        assert str(refused.value) == "alpha_c(5e-13) is not resolvable at float precision"


def _residual_guard(x):
    """te_residual_zero's pole guard on x = 2a - tau."""
    return abs(x - round(x)) < 1e-12


def _alpha_c_guard(x):
    """alpha_c's form of the same guard, for x in (-1, 0]."""
    return x > -1e-12 or x + 1.0 < 1e-12


class TestPoleGuard:
    # alpha_c bisects tau in (1, 1 + a) for a < 1/2 and (2a, 1 + a) above,
    # so x = 2a - tau lies in (-1, 0]; there its guard is the residual's
    def test_alpha_c_uses_the_guard(self):
        assert "if x > -1e-12 or x + 1.0 < 1e-12:" in inspect.getsource(alpha_c)

    @given(st.one_of(st.floats(-1.0, 0.0, exclude_min=True),
                     st.floats(-1.0, -1.0 + 2e-12, exclude_min=True),
                     st.floats(-2e-12, 0.0)))
    @settings(max_examples=1000, deadline=None)
    def test_property(self, x):
        assert _alpha_c_guard(x) == _residual_guard(x)

    @pytest.mark.parametrize("edge", [0.0, -1.0])
    def test_floats_at_the_threshold(self, edge):
        # every float in 64 ulp either side of edge +- 1e-12 inside (-1, 0]
        xs = []
        for centre in (edge - 1e-12, edge + 1e-12):
            x = centre
            for _ in range(64):
                x = math.nextafter(x, -math.inf)
            for _ in range(129):
                xs.append(x)
                x = math.nextafter(x, math.inf)
        xs = [x for x in xs if -1.0 < x <= 0.0]
        assert len(xs) == 129 and any(map(_residual_guard, xs)) and not all(map(_residual_guard, xs))
        for x in xs:
            assert _alpha_c_guard(x) == _residual_guard(x), x.hex()

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=300, deadline=None)
    def test_window_ends(self, a):
        # x reaches -1 only at an end of a window that holds no float
        lo = 1.0 if a < 0.5 else 2.0 * a
        for tau in (lo, 1.0 + a):
            x = 2.0 * a - tau
            assert -1.0 <= x <= 0.0
            assert _alpha_c_guard(x) == _residual_guard(x), (a, tau)


class TestArgBetaSeries:
    def test_series_sign(self):
        # the summed series is negative for 0 < gamma < 1
        sigma, gamma, xi = 1.1, 0.6, 0.8
        n = np.arange(10 ** 5, dtype=float)
        series = float(np.sum(np.arctan(xi / (sigma + gamma + n))
                              - np.arctan(xi / (sigma + n))))
        assert series < 0.0
        from whml.specfun import complex_beta
        arg = float(np.angle(complex_beta(complex(sigma, xi), gamma)))
        assert -math.pi / 2 < arg < 0


class TestScans:
    @pytest.mark.parametrize("region", ["TE2", "TE3", "TE4", "TE6", "TE7", "TE8"])
    def test_regions_positive_at_base_density(self, region):
        rep = inequality_scan(region, 20)
        assert rep.passed
        assert rep.min_margin > 0.0

    def test_te2_margins_both_sides(self):
        rep = inequality_scan("TE2", 25)
        # the uniform estimate separates both sides from 2/pi
        assert rep.min_margin > 0.01

    def test_density_guard(self):
        with pytest.raises(DomainError):
            inequality_scan("TE2", 10)
        with pytest.raises(DomainError):
            inequality_scan("TE99", 20)

    @pytest.mark.parametrize("density", [20.5, 20.0, True, np.float64(20.0), "20"])
    def test_non_integer_density_refused(self, density):
        # 20.5 would run a 21-point midgrid whose last point is the region's edge
        with pytest.raises(DomainError, match="integer grid_density"):
            inequality_scan("TE2", density)
        with pytest.raises(DomainError, match="integer grid_density"):
            no_solution_certificate("LOW", density)

    def test_numpy_integer_density_accepted(self):
        assert inequality_scan("TE2", np.int64(20)) == inequality_scan("TE2", 20)


class TestCertificates:
    def test_low(self):
        rep = no_solution_certificate("LOW", 25)
        assert rep.passed
        assert rep.min_margin > 1e-3

    def test_high_localizes(self):
        rep = no_solution_certificate("HIGH", 25)
        assert rep.passed
        assert "ok=True" in rep.grid

    def test_guards(self):
        with pytest.raises(DomainError):
            no_solution_certificate("LOW", 5)
        with pytest.raises(DomainError):
            no_solution_certificate("MID", 25)

    @pytest.mark.parametrize("alphas", [(), [], (0.0,), (0.3, math.nan), (math.inf,),
                                        (0.5, 1.2), (-0.1, 0.5), (1.0,)])
    def test_high_refuses_bad_alphas_before_scanning(self, alphas, monkeypatch):
        # an empty set used to pass vacuously; 0, nan and 1.2 failed only
        # inside or after the scan
        def no_scan(*args):
            raise AssertionError("scanned")
        monkeypatch.setattr(transcend, "_slab_min", no_scan)
        with pytest.raises(DomainError, match="alphas in"):
            no_solution_certificate("HIGH", 20, alphas=alphas)


# exact grid minima and their cells at density 20; a change to a region's
# grid, margin expression or minimum search moves at least one of them
_PINNED_20 = {
    "TE2": (0.1398539426494529, (0.0125, 0.0371875, 0.49375)),
    "TE3": (6.443493644911507e-05, (0.0125, 0.0371875, 0.00625)),
    "TE4": (0.0012508535141431318, (0.0125, 0.0003125, 9.75)),
    "TE6": (0.5259553630339873, (0.025, 1.049375, 0.49375)),
    "TE7": (0.003246504595451713, (0.5125, 1.9878125, 0.00625)),
    "TE8": (0.007516656836184421, (0.025, 1.000625, 9.75)),
    "LOW": (0.24746615219781878, (0.4375, 0.025, 0.25)),
    "HIGH": (0.005388343078896449, (0.75, 1.725, 0.0)),
}


@pytest.mark.parametrize("region", sorted(_PINNED_20))
def test_pinned_minimum_at_density_20(region):
    if region in ("LOW", "HIGH"):
        rep = no_solution_certificate(region, 20)
    else:
        rep = inequality_scan(region, 20)
    assert (rep.min_margin, rep.argmin) == _PINNED_20[region]


# the same at density 40, generated once by the serial per-alpha scan that
# the slab scan replaced: a one-window region runs here in 7 slabs
_PINNED_40 = {
    "TE2": (0.12963285186551543, (0.48125, 0.487734375, 0.371875)),
    "TE3": (1.5015863417607936e-05, (0.00625, 0.018671875, 0.003125)),
    "TE4": (0.0006251119428544237, (0.00625, 7.8125e-05, 9.875)),
    "TE6": (0.509707706017623, (0.0125, 1.79015625, 0.371875)),
    "TE7": (0.0015927258407049645, (0.50625, 1.993828125, 0.003125)),
    "TE8": (0.0037411943287516333, (0.0125, 1.00015625, 9.875)),
    "LOW": (0.1272305900109259, (0.43125, 0.0125, 0.125)),
    "HIGH": (0.020059496046807124, (0.3, 1.2125, 0.0)),
}


@pytest.mark.parametrize("region", sorted(_PINNED_40))
def test_pinned_minimum_at_density_40(region):
    if region in ("LOW", "HIGH"):
        rep = no_solution_certificate(region, 40)
    else:
        rep = inequality_scan(region, 40)
    assert (rep.min_margin, rep.argmin) == _PINNED_40[region]


def _serial_scan(region, density):
    """The per-alpha scan the slabs replaced: one (tau, xi) grid per alpha,
    minima reduced in alpha order with a strict comparison."""
    xis = transcend._midgrid(*region.xis, density)
    worst, arg = math.inf, None
    for a in transcend._midgrid(*region.alphas, density):
        taus = np.concatenate([transcend._midgrid(lo, hi, density)
                               for lo, hi in region.tau_windows(a)])
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ts = transcend._ts_array(a, taus[:, None], xis[None, :])
            tb = transcend._tb_array(a, taus[:, None], xis[None, :])
            m = region.margin(a, ts, tb, xis[None, :])
        i = np.unravel_index(np.argmin(m), m.shape)
        if m[i] < worst:
            worst, arg = float(m[i]), (float(a), float(taus[i[0]]), float(xis[i[1]]))
    return worst, arg


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def _beta_grids(density):
    """(alphas, taus, xis) of every region and both certificates, shaped as
    the scans broadcast them, with edge alphas inside each alpha range."""
    edges = (1e-9, 1e-8, 0.4999999, 0.5, 1.0 - 1e-7, 1.0 - 1e-8)
    regions = dict(transcend.SCAN_REGIONS, LOW=transcend._LOW)
    for name, region in regions.items():
        lo, hi = region.alphas
        alphas = np.concatenate([transcend._midgrid(lo, hi, density),
                                 [a for a in edges if lo < a < hi]])
        taus = np.array([np.concatenate([transcend._midgrid(t0, t1, density)
                                         for t0, t1 in region.tau_windows(a)]) for a in alphas])
        yield name, alphas, taus, transcend._midgrid(*region.xis, density)
    alphas = np.array([0.3, 0.5, 0.75, 1e-9, 1.0 - 1e-8])
    yield ("HIGH", alphas, np.tile(transcend._midgrid(1.0, 2.0, density), (len(alphas), 1)),
           np.linspace(0.0, transcend._XI_FAR, density))


class TestScanBetaSide:
    @pytest.mark.parametrize("name, alphas, taus, xis", list(_beta_grids(40)),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_equals_beta_term_bit_for_bit(self, name, alphas, taus, xis):
        a, t = alphas[:, None, None], taus[:, :, None]
        got = transcend._tb_array(a, t, xis)
        assert got.shape == (len(alphas), taus.shape[1], len(xis))
        assert _same_bits(got, beta_term(a, t + 1.0 - 2.0 * a, xis))

    def test_grid_reaching_the_beta_pole_is_refused(self):
        # tau + 1 - 2a runs from -1/2 to 1/2 across the tau window
        te2 = transcend.SCAN_REGIONS["TE2"]
        region = transcend._Region(te2.alphas, lambda a: [(2.0 * a - 1.5, 2.0 * a - 0.5)],
                                   te2.xis, te2.margin, te2.grid)
        with pytest.raises(PoleError, match="beta pole"):
            transcend._scan(region, 20)
        with pytest.raises(PoleError, match="beta pole"):
            transcend._scan(region, 40)

    def test_the_check_is_on_rows_before_any_cell(self, monkeypatch):
        def no_cells(*args):
            raise AssertionError("evaluated a cell")
        monkeypatch.setattr(transcend, "_tb_array", no_cells)
        with pytest.raises(PoleError, match="beta pole"):
            transcend._slab_min(transcend._gap, np.array([0.75]), np.array([[0.5, 0.25]]),
                                np.array([0.0, 1.0]))


class TestSlabs:
    @pytest.mark.parametrize("region", ["TE3", "TE6", "LOW"])
    def test_one_worker_and_the_pool_agree(self, region, monkeypatch):
        def scan():
            if region == "LOW":
                return no_solution_certificate("LOW", 40).to_json_dict()
            return inequality_scan(region, 40).to_json_dict()
        monkeypatch.setattr(transcend, "_WORKERS", 1)
        serial = scan()
        monkeypatch.setattr(transcend, "_WORKERS", 2)
        assert scan() == serial

    def test_density_20_is_one_slab_on_the_calling_thread(self, monkeypatch):
        calls = []
        slab_min = transcend._slab_min

        def recorded(*args):
            calls.append(threading.current_thread())
            return slab_min(*args)
        monkeypatch.setattr(transcend, "_slab_min", recorded)
        monkeypatch.setattr(transcend, "_WORKERS", 2)
        for region in transcend.SCAN_REGIONS:
            inequality_scan(region, 20)
        no_solution_certificate("LOW", 20)
        no_solution_certificate("HIGH", 20)
        assert calls == [threading.main_thread()] * 8

    def test_nan_row_is_skipped_as_in_a_serial_scan(self, monkeypatch):
        te6 = transcend.SCAN_REGIONS["TE6"]
        # NaN on one cell of the row that holds TE6's minimum at density 40,
        # and of the last row
        a_nan, _, xi_nan = _PINNED_40["TE6"][1]
        a_last = transcend._midgrid(*te6.alphas, 40)[-1]

        def margin(a, ts, tb, xis):
            m = te6.margin(a, ts, tb, xis)
            return np.where(((a == a_nan) | (a == a_last)) & (xis == xi_nan), np.nan, m)
        region = transcend._Region(te6.alphas, te6.tau_windows, te6.xis, margin, te6.grid)
        monkeypatch.setattr(transcend, "_WORKERS", 2)
        worst, arg = transcend._scan(region, 40)
        assert (worst, arg) == _serial_scan(region, 40)
        assert arg[0] not in (a_nan, a_last) and worst > _PINNED_40["TE6"][0]

    def test_first_failing_slab_raises_and_threads_end(self, monkeypatch):
        te2 = transcend.SCAN_REGIONS["TE2"]
        alphas = transcend._midgrid(*te2.alphas, 40)

        def margin(a, ts, tb, xis):
            # the third slab and the last both fail; the third is read first
            if np.any(a == alphas[15]):
                raise PoleError("third slab")
            if np.any(a == alphas[-1]):
                raise AccuracyOverflow("last slab")
            return te2.margin(a, ts, tb, xis)
        region = transcend._Region(te2.alphas, te2.tau_windows, te2.xis, margin, te2.grid)
        monkeypatch.setattr(transcend, "_WORKERS", 2)
        before = threading.active_count()
        with pytest.raises(PoleError, match="third slab"):
            transcend._scan(region, 40)
        assert threading.active_count() == before
