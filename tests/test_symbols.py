import cmath
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whml.errors import DomainError
from whml.specfun import AccuracyOverflow, principal_power
from whml.symbols import (
    XI_SATURATION,
    Regime,
    SpectralParams,
    c1p_inf,
    c2p_inf,
    gamma1_mellin_term,
    mellin_symbol_residual,
    sine_ratio,
    wh_c1,
    wh_c2,
)

SP_MODEL = SpectralParams(0.4, 2.0, 1.4)   # nu = 0
SP_LOW = SpectralParams(0.3, 2.0, 1.2)
SP_HIGH = SpectralParams(0.75, 2.0, 2.2)


class TestSpectralParams:
    def test_windows(self):
        assert SP_LOW.regime is Regime.LOW and SP_LOW.m == 1
        assert SP_HIGH.regime is Regime.HIGH and SP_HIGH.m == 2

    def test_derived_quantities(self):
        assert SP_LOW.tau == pytest.approx(0.7)
        assert SP_LOW.nu == pytest.approx(1 - 1.2 + 0.3)
        assert SP_LOW.nu_prime == pytest.approx(1 - 1.2 + 0.6)
        assert SP_HIGH.nu == pytest.approx(2 - 2.2 + 0.75)
        assert SP_LOW.beta_sigma == pytest.approx(1.2 - 0.6 + (1 - 1 / 2.0))

    def test_boundary_smoothness_rejected(self):
        with pytest.raises(DomainError):
            SpectralParams(0.3, 2.0, 1.5)  # s = 1 + 1/p exactly
        with pytest.raises(DomainError):
            SpectralParams(0.3, 2.0, 0.5)  # s = 1/p exactly
        with pytest.raises(DomainError):
            SpectralParams(0.3, 2.0, 2.5)  # s = 2 + 1/p exactly

    def test_low_window_needs_small_alpha(self):
        with pytest.raises(DomainError):
            SpectralParams(0.6, 2.0, 1.2)

    def test_parameter_ranges(self):
        with pytest.raises(DomainError):
            SpectralParams(0.0, 2.0, 1.2)
        with pytest.raises(DomainError):
            SpectralParams(0.3, 1.0, 1.2)


class TestWienerHopfFactors:
    def test_c1_unit_modulus(self):
        for xi in (-17.3, -0.2, 0.004, 3.7, 120.0):
            assert abs(wh_c1(xi, SP_LOW)) == pytest.approx(1.0, abs=1e-13)

    def test_c1_limits(self):
        assert abs(wh_c1(1e6, SP_LOW) - 1.0) < 1e-5
        nu = SP_LOW.nu
        assert wh_c1(-1e6, SP_LOW) == pytest.approx(cmath.exp(2j * math.pi * nu), abs=1e-5)
        assert wh_c1(1e-12, SP_LOW) == pytest.approx(cmath.exp(1j * math.pi * nu), abs=1e-10)
        assert wh_c1(-1e-12, SP_LOW) == pytest.approx(cmath.exp(1j * math.pi * nu), abs=1e-10)

    def test_c1_zero_at_nu_zero(self):
        assert wh_c1(0.0, SP_MODEL) == pytest.approx(1.0, abs=1e-14)

    def test_c2_limits(self):
        a = SP_LOW.alpha
        assert wh_c2(0.0, SP_LOW) == 0.0
        assert wh_c2(1e6, SP_LOW) == pytest.approx(cmath.exp(-1j * math.pi * a), abs=1e-4)
        expect = cmath.exp(-1j * math.pi * a) * cmath.exp(2j * math.pi * SP_LOW.nu_prime)
        assert wh_c2(-1e6, SP_LOW) == pytest.approx(expect, abs=1e-4)

    def test_c1_factorisation_consistency(self):
        rng = np.random.default_rng(17)
        a, s, m = SP_LOW.alpha, SP_LOW.s, SP_LOW.m
        for _ in range(100):
            xi = float(rng.uniform(-40.0, 40.0))
            composed = (
                principal_power(1.0 + xi * xi, a)
                * principal_power(complex(xi, -1.0), s - 2.0 * a - m)
                * principal_power(complex(xi, 1.0), m - s)
            )
            assert wh_c1(xi, SP_LOW) == pytest.approx(composed, rel=1e-13)


def loop_function(g_minus, g_plus, xi, p):
    """The coth form of the boundary-segment arc, the oracle of c1p_inf and
    c2p_inf: g(-inf)(1 + d)/2 + g(+inf)(1 - d)/2, d = coth(pi(xi + i/p))."""
    z = math.pi * complex(xi, 1.0 / p)
    d = cmath.cosh(z) / cmath.sinh(z)
    return g_minus * (1.0 + d) / 2.0 + g_plus * (1.0 - d) / 2.0


# each boundary-segment factor with the Wiener-Hopf factor whose limits it joins
ARC_FACTORS = ((c1p_inf, wh_c1), (c2p_inf, wh_c2))


def _mid_half(limit, sp):
    """(A, B) = (g(-inf) + g(+inf)) / 2, (g(-inf) - g(+inf)) / 2."""
    g_minus, g_plus = limit(-math.inf, sp), limit(math.inf, sp)
    return (g_minus + g_plus) / 2.0, (g_minus - g_plus) / 2.0


class TestLoopFunction:
    """c1p_inf and c2p_inf run on the circular arc A + B coth(pi(xi + i/p))
    between the one-sided limits of their Wiener-Hopf factors."""

    def test_endpoint_limits(self):
        sp = SpectralParams(0.3, 2.5, 1.2)
        for factor, limit in ARC_FACTORS:
            assert factor(40.0, sp) == pytest.approx(limit(-math.inf, sp), abs=1e-12)
            assert factor(-40.0, sp) == pytest.approx(limit(math.inf, sp), abs=1e-12)

    def test_arc_geometry_p3(self):
        t = 2.0 * math.pi / 3.0
        xis = np.linspace(-4.0, 4.0, 10)
        for xi in xis:
            val = loop_function(-1.0, 1.0, float(xi), 3.0)
            assert abs(val - 1j / math.tan(t)) == pytest.approx(1.0 / math.sin(t), abs=1e-10)
        sp = SpectralParams(0.3, 3.0, 1.2)
        for factor, limit in ARC_FACTORS:
            mid, half = _mid_half(limit, sp)
            dist = np.abs(factor(xis, sp) - (mid - 1j * half / math.tan(t)))
            assert dist == pytest.approx(abs(half) / math.sin(t), abs=1e-10)

    def test_p2_degenerates_to_segment(self):
        sp = SpectralParams(0.3, 2.0, 1.2)
        for factor, limit in ARC_FACTORS:
            mid, half = _mid_half(limit, sp)
            # the position along the chord, -1 at g(+inf) and 1 at g(-inf)
            d = (factor(np.linspace(-3.0, 3.0, 11), sp) - mid) / half
            assert np.all(np.abs(d.imag) < 1e-12)
            assert np.all(np.abs(d.real) <= 1.0 + 1e-12)

    def test_imaginary_sign_follows_p(self):
        for p, sign in ((1.5, -1.0), (3.0, 1.0), (4.0, 1.0)):
            sp = SpectralParams(0.3, p, 1.2)
            for factor, limit in ARC_FACTORS:
                mid, half = _mid_half(limit, sp)
                val = (mid - factor(0.4, sp)) / half
                assert math.copysign(1.0, val.imag) == math.copysign(
                    1.0, math.sin(2.0 * math.pi / p)) == sign


class TestBoundarySegmentFactors:
    def test_saturation_to_one_sided_limits(self):
        assert abs(c1p_inf(30.0, SP_LOW) - wh_c1(-math.inf, SP_LOW)) < 1e-10
        assert abs(c1p_inf(-30.0, SP_LOW) - wh_c1(math.inf, SP_LOW)) < 1e-10
        assert abs(c2p_inf(30.0, SP_LOW) - wh_c2(-math.inf, SP_LOW)) < 1e-10
        assert abs(c2p_inf(-30.0, SP_LOW) - wh_c2(math.inf, SP_LOW)) < 1e-10

    def test_equals_loop_function(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            xi = float(rng.uniform(-6.0, 6.0))
            via_loop = loop_function(
                wh_c1(-math.inf, SP_LOW), wh_c1(math.inf, SP_LOW), xi, SP_LOW.p)
            assert c1p_inf(xi, SP_LOW) == pytest.approx(via_loop, rel=1e-12)
            via_loop2 = loop_function(
                wh_c2(-math.inf, SP_LOW), wh_c2(math.inf, SP_LOW), xi, SP_LOW.p)
            assert c2p_inf(xi, SP_LOW) == pytest.approx(via_loop2, rel=1e-12)

    def test_collapses_at_zero_order(self):
        for xi in (-3.0, 0.0, 1.7):
            assert c1p_inf(xi, SP_MODEL) == pytest.approx(1.0, abs=1e-13)

    def test_order_bookkeeping_invariance(self):
        # the sine-ratio factors only see s - 1/p: raising the window and s
        # together reproduces the same boundary values
        low = SpectralParams(0.3, 2.0, 1.2)
        high = SpectralParams(0.3, 2.0, 2.2)
        for xi in (-2.3, 0.0, 0.9, 7.7):
            assert c1p_inf(xi, low) == pytest.approx(c1p_inf(xi, high), rel=1e-13)
            assert c2p_inf(xi, low) == pytest.approx(c2p_inf(xi, high), rel=1e-13)


class TestSinRatioModulus:
    """|sine_ratio|, the array code of the loop and the scans."""

    def test_equal_arguments(self):
        assert abs(sine_ratio(0.37, 0.37, 2.2)) == 1.0

    def test_matches_direct_quotient(self):
        a, b, xi = 0.9, 0.5, 0.3
        direct = abs(cmath.sin(math.pi * (a - 1j * xi)) / cmath.sin(math.pi * (b - 1j * xi)))
        ch = math.cosh(2.0 * math.pi * xi)
        closed = math.sqrt((ch - math.cos(2.0 * math.pi * a)) / (ch - math.cos(2.0 * math.pi * b)))
        assert abs(sine_ratio(a, b, xi)) == pytest.approx(direct, abs=1e-12)
        assert abs(sine_ratio(a, b, xi)) == pytest.approx(closed, abs=1e-12)

    def test_saturates_to_one(self):
        assert abs(sine_ratio(0.9, 0.4, 500.0)) == pytest.approx(1.0, abs=1e-15)
        assert abs(sine_ratio(0.9, 0.4, 50.0)) == pytest.approx(1.0, abs=1e-12)

    def test_pole(self):
        # sin(pi b) = 0 at xi = 0 gives a non-finite entry, not an exception
        with np.errstate(divide="ignore", invalid="ignore"):
            assert not np.isfinite(sine_ratio(0.5, 0.0, 0.0))


class TestMellinSymbolResidual:
    def test_zero_frequency(self):
        assert mellin_symbol_residual(0.6, 0.0, 0.0, 2.0) < 1e-8

    def test_oscillatory(self):
        assert mellin_symbol_residual(0.8, 0.5, 2.0, 3.0) < 1e-7

    def test_zero_frequency_reduces_to_real_beta(self):
        from whml.specfun import complex_beta
        gamma, rho, p = 0.7, 0.2, 2.5
        val = complex_beta(rho + (1 - 1 / p), gamma) / math.gamma(gamma)
        assert val.imag == pytest.approx(0.0, abs=1e-15)
        assert mellin_symbol_residual(gamma, rho, 0.0, p) < 1e-8

    def test_random_samples(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            gamma = float(rng.uniform(0.2, 1.8))
            p = float(rng.uniform(1.2, 5.0))
            rho = float(rng.uniform(1.0 / p - 0.9, 1.5))
            y = float(rng.uniform(0.0, 4.0))
            assert mellin_symbol_residual(gamma, rho, y, p) < 1e-7

    def test_domain(self):
        with pytest.raises(DomainError):
            mellin_symbol_residual(-0.5, 0.0, 0.0, 2.0)
        with pytest.raises(DomainError):
            mellin_symbol_residual(0.5, -0.9, 0.0, 2.0)


class TestArrayViews:
    def test_array_call_equals_scalar_calls(self):
        from whml.symbols import gamma1_mellin_term
        xis = np.array([-1e3, -7.5, -0.3, 0.0, 0.4, 2.0, 60.0])
        for sp in (SP_LOW, SP_HIGH):
            for fn in (wh_c1, c1p_inf, c2p_inf, gamma1_mellin_term):
                vals = fn(xis, sp)
                assert vals.shape == xis.shape
                for xi, val in zip(xis, vals):
                    scalar = fn(float(xi), sp)
                    assert isinstance(scalar, complex)
                    assert scalar == pytest.approx(val, rel=1e-15, abs=1e-15)

    def test_wh_c1_array_limits(self):
        vals = wh_c1(np.array([-np.inf, np.inf]), SP_HIGH)
        assert vals[0] == pytest.approx(cmath.exp(2j * math.pi * SP_HIGH.nu), abs=1e-15)
        assert vals[1] == 1.0

    def test_wh_c2_array_equals_pointwise_calls(self):
        # both Wiener-Hopf factors, each with its limits at +inf and -inf;
        # a scalar call equals its entry of the array call bit for bit
        factors = (
            (wh_c1, lambda sp: 1.0 + 0j, lambda sp: cmath.exp(2j * math.pi * sp.nu)),
            (wh_c2, lambda sp: cmath.exp(-1j * math.pi * sp.alpha),
             lambda sp: cmath.exp(1j * math.pi * (2.0 * sp.nu_prime - sp.alpha))),
        )
        rng = np.random.default_rng(29)
        xis = np.concatenate([rng.normal(0.0, 20.0, 300),
                              [0.0, -0.0, np.inf, -np.inf, 1e-300, -1e8, 1e8]])
        for fn, at_plus_inf, at_minus_inf in factors:
            for sp in (SP_LOW, SP_HIGH, SP_MODEL):
                vals = fn(xis, sp)
                assert vals.shape == xis.shape
                for xi, val in zip(xis, vals):
                    scalar = fn(float(xi), sp)
                    assert isinstance(scalar, complex)
                    assert scalar == val, (fn.__name__, sp, xi)
                assert vals[-5] == at_plus_inf(sp)
                assert vals[-4] == at_minus_inf(sp)
            assert fn(np.zeros((2, 3)), SP_LOW).shape == (2, 3)
        for sp in (SP_LOW, SP_HIGH, SP_MODEL):
            assert wh_c2(0.0, sp) == 0 and wh_c2(-0.0, sp) == 0

    def test_nan_xi_is_refused(self):
        # nan has no limit: it must not fall into the -inf branch
        nan = float("nan")
        arrays = (np.array([nan]), np.array([0.5, nan, -np.inf]), np.full((2, 2), nan))
        for sp in (SP_LOW, SP_HIGH):
            for fn in (wh_c1, wh_c2, c1p_inf, c2p_inf, gamma1_mellin_term):
                for xi in (nan, np.float64(nan), *arrays):
                    with pytest.raises(DomainError, match="nan"):
                        fn(xi, sp)
            for xi in arrays:
                with pytest.raises(DomainError, match="nan"):
                    sp.loop_symbol.boundary(xi)


EDGE = 1e-12
ABOVE_SATURATION = float(np.nextafter(XI_SATURATION, np.inf))
# zero, the smallest subnormal, 1, the saturation threshold and the float above it
XI_PROBES = np.array([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, XI_SATURATION, -XI_SATURATION,
                      ABOVE_SATURATION, -ABOVE_SATURATION])


def _within(lo: float, hi: float):
    """Floats in [lo, hi], the two ends drawn often."""
    return st.one_of(st.floats(lo, hi), st.sampled_from([lo, hi]))


@st.composite
def _admissible(draw):
    """(alpha, p, s) anywhere in either window, as close as EDGE to each of
    its edges, with p up to 1e300."""
    p = draw(_within(1.0 + EDGE, 1e300))
    low = draw(st.booleans())
    alpha = draw(_within(EDGE, (0.5 if low else 1.0) - EDGE))
    s = 1.0 / p + (0.0 if low else 1.0) + draw(_within(EDGE, 1.0 - EDGE))
    return SpectralParams(alpha, p, s)


class TestLoopSymbol:
    @settings(max_examples=300, deadline=None)
    @given(_admissible())
    def test_equals_the_composed_factors_bit_for_bit(self, sp):
        # the loop's evaluator against the composition of the public
        # factors, limits beyond |xi| = XI_SATURATION included, bytes and all
        sym = sp.loop_symbol
        inner = np.abs(XI_PROBES) <= XI_SATURATION
        x = XI_PROBES[inner]
        composed = np.empty(XI_PROBES.shape, dtype=complex)
        composed[inner] = c1p_inf(x, sp) + gamma1_mellin_term(x, sp) * c2p_inf(x, sp)
        composed[~inner] = wh_c1(np.where(XI_PROBES[~inner] > 0.0, -np.inf, np.inf), sp)
        boundary = sym.boundary(XI_PROBES)
        assert boundary.tobytes() == composed.tobytes()
        assert np.isfinite(boundary).all()
        # the unit factor without zero masks against the masked powers,
        # and wh_c1's limits beyond the same saturation
        xs = np.append(XI_PROBES, [np.inf, -np.inf])
        unit = sym.unit(xs)
        inner = np.abs(xs) <= XI_SATURATION
        xf = xs[inner]
        a, s, m = sp.alpha, sp.s, sp.m
        masked = (principal_power(1.0 + xf * xf, a) * principal_power(xf - 1j, s - 2.0 * a - m)
                  * principal_power(xf + 1j, m - s))
        assert unit[inner].tobytes() == masked.tobytes()
        assert unit[~inner].tobytes() == wh_c1(np.copysign(np.inf, xs[~inner]), sp).tobytes()
        assert np.isfinite(unit).all()
        assert unit[-2] == 1.0 and unit[-1] == cmath.exp(2j * math.pi * sp.nu)

    def test_unit_takes_the_limits_where_wh_c1_overflows(self):
        # beyond XI_SATURATION the unit factor is its one-sided limit, so
        # 1 + xi^2 cannot overflow; wh_c1, which has no saturation, still
        # refuses the overflow
        sp = SpectralParams(0.75, 2.0, 2.3)
        unit = sp.loop_symbol.unit(np.array([1e200, -1e200]))
        assert unit.tobytes() == wh_c1(np.array([np.inf, -np.inf]), sp).tobytes()
        assert unit[0] == 1.0 and unit[1] == cmath.exp(2j * math.pi * sp.nu)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(AccuracyOverflow):
                wh_c1(np.array([1e200]), sp)

    def test_no_pole_scan_at_tiny_alpha(self):
        # 2a = 2e-14 lies within complex_beta's 1e-13 pole band, but the
        # beta factor has no pole for a > 0: the loop gets its values
        from whml.contour import build_loop, winding_number
        from whml.errors import PoleError
        sp = SpectralParams(1e-14, 2.0, 0.9)
        with pytest.raises(PoleError):
            gamma1_mellin_term(0.0, sp)
        assert np.isfinite(sp.loop_symbol.boundary(XI_PROBES)).all()
        assert winding_number(build_loop(sp, 64)) == 0

    def test_constants_are_computed_once_per_triple(self):
        sp = SpectralParams(0.3, 2.0, 1.2)
        assert sp.loop_symbol is sp.loop_symbol
        assert SpectralParams(0.3, 2.0, 1.2).loop_symbol is not sp.loop_symbol
        # the evaluator kept on the triple does not stop it from pickling
        again = pickle.loads(pickle.dumps(sp))
        assert again == sp
        assert again.loop_symbol.boundary(XI_PROBES).tobytes() == \
            sp.loop_symbol.boundary(XI_PROBES).tobytes()
