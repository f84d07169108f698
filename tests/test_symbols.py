import cmath
import math

import numpy as np
import pytest

from whml.errors import DomainError, PoleError
from whml.specfun import principal_power
from whml.symbols import (
    Regime,
    SpectralParams,
    c1p_inf,
    c2p_inf,
    loop_function,
    mellin_symbol_residual,
    sin_ratio_modulus,
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
        assert SP_LOW.p_conj == pytest.approx(2.0)

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


class TestLoopFunction:
    def test_endpoint_limits(self):
        g_minus, g_plus = cmath.exp(0.3j), cmath.exp(-1.1j)
        assert loop_function(g_minus, g_plus, 40.0, 2.5) == pytest.approx(g_minus, abs=1e-12)
        assert loop_function(g_minus, g_plus, -40.0, 2.5) == pytest.approx(g_plus, abs=1e-12)

    def test_arc_geometry_p3(self):
        centre = 1j / math.tan(2.0 * math.pi / 3.0)
        radius = 1.0 / math.sin(2.0 * math.pi / 3.0)
        for xi in np.linspace(-4.0, 4.0, 10):
            val = loop_function(-1.0, 1.0, float(xi), 3.0)
            assert abs(val - centre) == pytest.approx(radius, abs=1e-10)

    def test_p2_degenerates_to_segment(self):
        for xi in np.linspace(-3.0, 3.0, 11):
            val = loop_function(-1.0, 1.0, float(xi), 2.0)
            assert abs(val.imag) < 1e-12
            assert -1.0 <= val.real <= 1.0

    def test_imaginary_sign_follows_p(self):
        for p, sign in ((1.5, -1.0), (3.0, 1.0), (4.0, 1.0)):
            val = loop_function(-1.0, 1.0, 0.4, p)
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
    def test_equal_arguments(self):
        assert sin_ratio_modulus(0.37, 0.37, 2.2) == 1.0

    def test_matches_direct_quotient(self):
        a, b, xi = 0.9, 0.5, 0.3
        direct = abs(cmath.sin(math.pi * (a - 1j * xi)) / cmath.sin(math.pi * (b - 1j * xi)))
        assert sin_ratio_modulus(a, b, xi) == pytest.approx(direct, abs=1e-12)

    def test_saturates_to_one(self):
        assert sin_ratio_modulus(0.9, 0.4, 500.0) == 1.0
        assert sin_ratio_modulus(0.9, 0.4, 50.0) == pytest.approx(1.0, abs=1e-12)

    def test_pole(self):
        with pytest.raises(PoleError):
            sin_ratio_modulus(0.5, 1.0, 0.0)


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
        for fn in (wh_c1, wh_c2):
            for sp in (SP_LOW, SP_HIGH):
                for xi in (nan, np.float64(nan), np.array([0.5, nan, -np.inf]),
                           np.full((2, 2), nan)):
                    with pytest.raises(DomainError, match="nan"):
                        fn(xi, sp)
