import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from whml.errors import DomainError, PoleError
from whml.specfun import (AccuracyOverflow, PartialBeta, bessel_k, complex_beta, kummer_u,
                          principal_power)


class TestPrincipalPower:
    def test_minus_one_sqrt_is_i(self):
        assert principal_power(-1.0, 0.5) == pytest.approx(1j, abs=1e-15)

    def test_split_of_real_symbol(self):
        xi, nu = 2.0, 0.3
        left = principal_power(complex(1.0, xi), nu) * principal_power(complex(1.0, -xi), nu)
        assert left == pytest.approx((1.0 + xi * xi) ** nu, abs=1e-14)

    def test_rotated_axis_power(self):
        xi, a = 3.0, 0.4
        val = principal_power(-1j * xi, 2 * a)
        expect = 3.0 ** 0.8 * cmath.exp(-1j * 0.4 * math.pi)
        assert val == pytest.approx(expect, abs=1e-14)

    def test_zero_base(self):
        assert principal_power(0.0, 1.5) == 0
        with pytest.raises(DomainError):
            principal_power(0.0, -0.5)
        with pytest.raises(DomainError):
            principal_power(0.0, 0.0)

    @given(
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                           allow_nan=False, allow_infinity=False),
        st.complex_numbers(min_magnitude=1e-3, max_magnitude=1e3,
                           allow_nan=False, allow_infinity=False),
        st.floats(min_value=-2.0, max_value=2.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiplicative_when_args_compatible(self, z1, z2, nu):
        # same argument convention as the library: negative reals carry +pi;
        # keep a float margin from the branch boundary, where the product's
        # rounded argument can land on the other side of the cut
        def arg(z):
            # math.atan2 tolerates subnormal components where cmath.phase
            # raises a spurious range error
            if z.imag == 0.0 and z.real < 0.0:
                return math.pi
            return math.atan2(z.imag, z.real)

        total = arg(z1) + arg(z2)
        if not (-math.pi + 1e-9 < total < math.pi - 1e-9):
            return
        prod = z1 * z2
        if prod.imag == 0.0 and abs(abs(arg(z1) + arg(z2)) - math.pi) < 1e-9:
            return
        lhs = principal_power(z1 * z2, nu)
        rhs = principal_power(z1, nu) * principal_power(z2, nu)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_scalar_call_is_a_view_of_the_array_call(self):
        rng = np.random.default_rng(23)
        z = rng.normal(0.0, 10.0, 4000) + 1j * rng.normal(0.0, 10.0, 4000)
        z[:1000] = rng.uniform(-50.0, 0.0, 1000)            # negative real axis, +0.0j
        z.imag[1000:2000] = -0.0                              # real line, -0.0j
        z[:2000:7] = 0.0
        z[1:2000:11] = complex(0.0, -0.0)
        assert np.any((z.real < 0) & (z.imag == 0) & np.signbit(z.imag))
        for g in (0.3, 1.5, 2.0 / 3.0):
            arr = principal_power(z, g)
            for zk, vk in zip(z, arr):
                v = principal_power(complex(zk), g)
                assert isinstance(v, complex)
                assert v == vk and math.copysign(1.0, v.imag) == math.copysign(1.0, vk.imag)
        nonzero = z[z != 0]
        arr = principal_power(nonzero, -0.7)
        assert all(principal_power(complex(zk), -0.7) == vk for zk, vk in zip(nonzero, arr))


class TestBeta:
    def test_unit(self):
        assert complex_beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_model_contour_bound(self):
        assert abs(complex_beta(1.1, 0.8)) < 1.152

    def test_quadrature_oracle(self):
        val, _ = quad(lambda t: t ** 1.3 * (1.0 - t) ** (-0.1), 0.0, 1.0,
                      epsabs=1e-13, epsrel=1e-12)
        assert complex_beta(2.3, 0.9).real == pytest.approx(val, rel=1e-9)

    def test_pole(self):
        with pytest.raises(PoleError):
            complex_beta(-1.0, 0.5)


class TestBesselK:
    def test_half_order_closed_form(self):
        assert bessel_k(0.5, 1.0) == pytest.approx(
            math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-12)

    def test_order_symmetry(self):
        assert bessel_k(0.8, 2.5) == pytest.approx(bessel_k(-0.8, 2.5), rel=1e-12)

    def test_integral_representation(self):
        # K_1(1) = integral of e^(-cosh t) cosh t
        val, _ = quad(lambda t: math.exp(-math.cosh(t)) * math.cosh(t), 0.0, 30.0,
                      epsabs=1e-14, epsrel=1e-12)
        assert bessel_k(1.0, 1.0) == pytest.approx(val, rel=1e-10)

    def test_positivity(self):
        for nu in (0.0, 0.3, 1.0, 1.5, 2.0):
            for x in (0.01, 0.5, 3.0, 15.0):
                assert bessel_k(nu, x) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            bessel_k(0.5, -1.0)
        with pytest.raises(DomainError):
            bessel_k(2.5, 1.0)
        # the guards apply to every entry of an array
        for bad in (np.array([1.0, 0.0, 2.0]), np.array([3.0, -1.0]), np.array([1.0, np.nan])):
            with pytest.raises(DomainError):
                bessel_k(0.5, bad)
        with pytest.raises(AccuracyOverflow):
            bessel_k(2.0, np.array([1.0, 1e-300]))

    def test_array_equals_pointwise_calls(self):
        xs = np.geomspace(1e-3, 50.0, 101)
        for nu in (-1.5, 0.0, 0.8, 2.0):
            vals = bessel_k(nu, xs)
            assert vals.shape == xs.shape
            assert [bessel_k(nu, x) for x in xs.tolist()] == vals.tolist()
        assert isinstance(bessel_k(0.8, np.float64(1.0)), float)
        assert bessel_k(0.8, np.ones((2, 3))).shape == (2, 3)

    def test_float_argument_keeps_the_guards(self, monkeypatch):
        # a Python float skips the array conversion, not the guards
        for x in (0.0, -0.0, -1.0, -math.inf, math.nan, np.float64(-2.0)):
            with pytest.raises(DomainError):
                bessel_k(0.5, x)
        with pytest.raises(AccuracyOverflow):
            bessel_k(2.0, 1e-300)
        import whml.specfun as specfun_mod
        monkeypatch.setattr(specfun_mod._sp, "kv", lambda nu, x: np.float64(np.nan))
        with pytest.raises(AccuracyOverflow):
            bessel_k(0.5, 1.0)


class TestKummerU:
    def test_bessel_cross_check(self):
        nu, x = 0.9, 1.3
        lhs = bessel_k(nu, x)
        rhs = math.sqrt(math.pi) * (2 * x) ** nu * math.exp(-x) * kummer_u(
            nu + 0.5, 2 * nu + 1.0, 2 * x)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_small_argument_limit(self):
        a, b = 1.4, 1.8
        x = 1e-6
        limit = 2.0 ** (1.0 - b) * math.gamma(b - 1.0) / math.gamma(a)
        assert x ** (b - 1.0) * kummer_u(a, b, 2.0 * x) == pytest.approx(
            limit, rel=1e-3)

    def test_integral_representation(self):
        a, b, z = 1.4, 1.8, 2.0
        val, _ = quad(lambda t: math.exp(-z * t) * t ** (a - 1.0) * (1.0 + t) ** (b - a - 1.0),
                      0.0, np.inf, epsabs=1e-13, epsrel=1e-12)
        assert kummer_u(a, b, z) == pytest.approx(val / math.gamma(a), rel=1e-9)

    def test_window(self):
        with pytest.raises(DomainError):
            kummer_u(-1.0, 1.5, 1.0)
        with pytest.raises(DomainError):
            kummer_u(1.0, 3.5, 1.0)
        with pytest.raises(DomainError):
            kummer_u(1.0, 1.5, -2.0)


class TestBetaAgainstMpmath:
    def test_scalar_and_array_match_mpmath(self):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(17)
        a = rng.uniform(0.05, 3.0, 60) + 1j * rng.uniform(-80.0, 80.0, 60)
        b = rng.uniform(0.05, 3.0, 60)
        array_vals = complex_beta(a, b)
        with mp.workdps(40):
            for k in range(60):
                ref = complex(mp.beta(mp.mpc(a[k].real, a[k].imag), mp.mpf(b[k])))
                scalar_val = complex_beta(complex(a[k]), float(b[k]))
                assert scalar_val == array_vals[k]
                assert abs(scalar_val - ref) <= 5e-13 * abs(ref)


class TestPartialBeta:
    def test_array_b_equals_complex_beta_bit_for_bit(self):
        # b per row, broadcast along the first argument's columns, as the
        # inequality scans call it
        rng = np.random.default_rng(25)
        b = rng.uniform(1e-9, 2.0, (30, 1))
        a = rng.uniform(1e-6, 3.0, (30, 40)) + 1j * rng.uniform(0.0, 10.0, (30, 40))
        got = PartialBeta(b)(a)
        want = complex_beta(a, b)
        assert got.shape == want.shape == (30, 40)
        assert got.tobytes() == want.tobytes()

    def test_scalar_b_equals_complex_beta_bit_for_bit(self):
        a = np.array([0.5 + 0j, 1.25 + 3.0j, 2.0 - 7.5j])
        assert PartialBeta(0.6)(a).tobytes() == complex_beta(a, 0.6).tobytes()

    @pytest.mark.parametrize("b", [0.0, -0.5, math.nan, [0.4, 0.0], [[0.4], [-1.0]],
                                   np.array([0.3, math.nan])])
    def test_refuses_b_not_positive_in_any_entry(self, b):
        with pytest.raises(DomainError, match="b > 0"):
            PartialBeta(b)
