import math

import numpy as np
import pytest

from whml.errors import DomainError
from whml.kernel import (
    KernelParams,
    bernstein_residual,
    delta_image,
    frac_laplacian_constant,
    kernel_m,
    kernel_m_oracle,
    killing_coefficient,
    potential_full,
    potential_on_grid,
    symbol_identity_residual,
)
from whml.quadrature import quad
from whml.specfun import AccuracyOverflow, bessel_k

ALPHAS = (0.1, 0.25, 0.5, 0.75, 0.9)


class TestKernelM:
    def test_even_and_positive(self):
        k = KernelParams(0.3)
        assert kernel_m(0.7, k) == pytest.approx(kernel_m(-0.7, k), rel=1e-15)
        for y in (1e-3, 0.5, 4.0, 18.0):
            assert kernel_m(y, k) > 0.0

    def test_half_alpha_shape(self):
        # alpha = 1/2 collapses to c * y^-1 K_1(y)
        k = KernelParams(0.5)
        c = k.prefactor * 2.0 / math.sqrt(math.pi)
        assert kernel_m(1.0, k) == pytest.approx(c * bessel_k(1.0, 1.0), rel=1e-13)

    def test_scalar_call_is_the_array_formula(self):
        # a float skips the array conversion but must keep the array's bits
        ys = np.geomspace(1e-3, 20.0, 2000)
        for a in ALPHAS:
            k = KernelParams(a)
            scalar = np.array([kernel_m(y, k) for y in ys.tolist()])
            one_element = np.array([float(kernel_m(np.array([y]), k)[0]) for y in ys])
            np.testing.assert_array_equal(scalar.view(np.int64), one_element.view(np.int64))
            np.testing.assert_array_equal(scalar.view(np.int64), kernel_m(ys, k).view(np.int64))
            assert [kernel_m(-y, k) for y in ys.tolist()] == scalar.tolist()

    def test_non_finite_bessel_raises(self, monkeypatch):
        # every kernel route goes through the guarded bessel_k, so a
        # non-finite K is reported rather than integrated
        import whml.specfun as specfun_mod
        monkeypatch.setattr(specfun_mod._sp, "kv", lambda nu, x: np.full(np.shape(x), np.inf))
        k = KernelParams(0.3)
        for call in (lambda: kernel_m(1.0, k),
                     lambda: potential_full(1.0, k),
                     lambda: potential_on_grid(np.linspace(0.5, 2.0, 4), k),
                     lambda: symbol_identity_residual(2.0, k)):
            with pytest.raises(AccuracyOverflow):
                call()

    def test_dual_route_sample(self):
        k = KernelParams(0.25)
        m, mo = kernel_m(1.0, k), kernel_m_oracle(1.0, k)
        assert abs(m - mo) / m < 1e-8

    def test_dual_route_grid(self):
        for a in ALPHAS:
            k = KernelParams(a)
            for y in np.geomspace(1e-3, 20.0, 9):
                m = kernel_m(float(y), k)
                assert abs(m - kernel_m_oracle(float(y), k)) / m < 1e-8

    def test_oracle_monotone_on_tail(self):
        k = KernelParams(0.4)
        vals = [kernel_m_oracle(y, k) for y in np.linspace(1.0, 5.0, 9)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_exponential_decay(self):
        k = KernelParams(0.3)
        assert kernel_m_oracle(8.0, k) / kernel_m_oracle(7.0, k) < 1.5 * math.exp(-1.0)

    def test_small_y_power_law(self):
        for a in (0.2, 0.75):
            k = KernelParams(a)
            scaled = [kernel_m(y, k) * y ** (1.0 + 2.0 * a) for y in (1e-2, 1e-3, 1e-4)]
            assert all(v > 0 for v in scaled)
            assert max(scaled) / min(scaled) < 1.2

    def test_singular_point(self):
        with pytest.raises(DomainError):
            kernel_m(0.0, KernelParams(0.3))
        with pytest.raises(DomainError):
            kernel_m(np.array([1.0, 0.0]), KernelParams(0.3))
        with pytest.raises(DomainError):
            kernel_m_oracle(0.0, KernelParams(0.3))

    def test_params_window(self):
        with pytest.raises(DomainError):
            KernelParams(0.0)
        with pytest.raises(DomainError):
            KernelParams(1.0)


class TestSymbolIdentity:
    def test_zero_frequency(self):
        assert symbol_identity_residual(0.0, KernelParams(0.3)) == 0.0

    def test_moderate_frequency(self):
        assert symbol_identity_residual(2.0, KernelParams(0.3)) < 1e-6

    def test_high_frequency(self):
        assert symbol_identity_residual(10.0, KernelParams(0.45)) < 1e-5

    def test_grid(self):
        for a in ALPHAS:
            k = KernelParams(a)
            for xi in (0.5, 5.0, 20.0):
                assert symbol_identity_residual(xi, k) < 1e-5


class TestBernstein:
    def test_zero(self):
        assert bernstein_residual(0.0, KernelParams(0.4)) == 0.0

    def test_samples(self):
        assert bernstein_residual(3.0, KernelParams(0.6)) < 1e-9
        assert bernstein_residual(0.1, KernelParams(0.2)) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            bernstein_residual(-1.0, KernelParams(0.4))


class TestPotential:
    def test_negative(self):
        k = KernelParams(0.35)
        for x in (0.01, 0.5, 2.0, 8.0):
            assert potential_full(x, k) < 0.0

    def test_near_origin_power(self):
        k = KernelParams(0.3)
        scaled = [abs(potential_full(x, k)) * x ** 0.6 for x in (1e-2, 1e-3, 1e-4)]
        assert max(scaled) / min(scaled) < 1.5

    def test_tail(self):
        assert abs(potential_full(10.0, KernelParams(0.4))) < 1e-3

    def test_grid_agrees_with_pointwise(self):
        k = KernelParams(0.45)
        xs = np.linspace(0.05, 12.0, 400)
        grid = potential_on_grid(xs, k)
        for i in (0, 57, 200, 399):
            assert grid[i] == pytest.approx(potential_full(float(xs[i]), k), rel=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            potential_full(0.0, KernelParams(0.3))


def _potential_by_subordination(x: float, a: float):
    """-integral_x^inf m by 30-digit mpmath through the subordination
    integral: integrating the heat kernel over (x, inf) leaves
    -(alpha / (2 Gamma(1 - alpha))) integral_0^inf e^-s s^(-1 - alpha)
    erfc(x / (2 sqrt(s))) ds, with no Bessel function."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a, x = mp.mpf(a), mp.mpf(x)

        def f(s):
            return mp.exp(-s) * s ** (-1 - a) * mp.erfc(x / (2 * mp.sqrt(s)))

        val = mp.quad(f, [0, x * x / 4, x * x, 4 * x * x, 1, mp.inf])
        return float(-a / (2 * mp.gamma(1 - a)) * val)


class TestPotentialNearOrigin:
    XS = np.logspace(-12.0, -1.0, 45)

    @pytest.mark.parametrize("a", [0.1, 0.3, 0.5, 0.6, 0.75, 0.9, 0.99])
    def test_finite_and_negative(self, a):
        k = KernelParams(a)
        for x in self.XS:
            v = potential_full(float(x), k)
            assert math.isfinite(v) and v < 0.0, (a, x, v)

    @pytest.mark.parametrize("a,i", [(0.1, 0), (0.3, 11), (0.5, 44), (0.75, 22), (0.99, 33)])
    def test_matches_mpmath(self, a, i):
        x = float(self.XS[i])
        want = _potential_by_subordination(x, a)
        assert potential_full(x, KernelParams(a)) == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("a", [0.05, 0.5, 0.75, 0.95])
    @pytest.mark.parametrize("x", [10.0, 10.2, 11.6, 20.0])
    def test_matches_mpmath_beyond_one(self, a, x):
        # the tolerance is relative alone: the potential is below 1e-3 here,
        # and an absolute 1e-13 left it 1.4e-10 off at x = 10.2, alpha 0.5
        want = _potential_by_subordination(x, a)
        assert potential_full(x, KernelParams(a)) == pytest.approx(want, rel=1e-10, abs=0.0)

    def test_leading_term_is_the_killing_formula(self):
        # the closed-form head carries the whole x^(-2 alpha) singularity:
        # x^(2 alpha) times the potential at x and x/2, with one Richardson
        # step on the x^(2 alpha) correction, is the killing coefficient
        for a in (0.1, 0.25, 0.5, 0.6, 0.75, 0.9):
            k = KernelParams(a)
            near, far = (-potential_full(x, k) * x ** (2.0 * a) for x in (5e-9, 1e-8))
            t = 0.5 ** (2.0 * a)
            ratio = (near - t * far) / (1.0 - t) / killing_coefficient(k)
            assert ratio == pytest.approx(1.0, abs=1e-8), a


class TestDeltaImage:
    def test_fourier_integral_oracle(self):
        # (i/sqrt(2 pi)) (1 + d/dx) applied to the inverse transform of
        # (1+xi^2)^(a-1), evaluated by oscillatory quadrature
        a, x0 = 0.3, 1.0
        k = KernelParams(a)

        def finv(x):
            val = quad(lambda xi: (1.0 + xi * xi) ** (a - 1.0), 0.0, np.inf,
                       weight="cos", wvar=x, epsabs=1e-12, epsrel=1e-11)
            return math.sqrt(2.0 / math.pi) * val

        h = 1e-5
        oracle = 1j / math.sqrt(2.0 * math.pi) * (
            finv(x0) + (finv(x0 + h) - finv(x0 - h)) / (2.0 * h))
        assert delta_image(x0, k) == pytest.approx(
            oracle, rel=1e-8)

    def test_small_x_limit(self):
        a = 0.35
        k = KernelParams(a)
        limit = k.c_alpha * 2.0 ** (-2 * a) * math.gamma(2 * a) / math.gamma(a + 1.0)
        x = 1e-7
        val = x ** (2 * a) * delta_image(x, k)
        assert val == pytest.approx(limit, rel=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            delta_image(-1.0, KernelParams(0.3))

    def test_non_finite_profile_raises(self, monkeypatch):
        # the profile goes through the guarded kummer_u, so a non-finite U
        # is reported rather than returned
        import whml.specfun as specfun_mod
        monkeypatch.setattr(specfun_mod._sp, "hyperu", lambda a, b, x: math.nan)
        with pytest.raises(AccuracyOverflow):
            delta_image(1.0, KernelParams(0.3))




class TestConstants:
    def test_zero_power_value(self):
        a = 0.4
        k = KernelParams(a)
        assert frac_laplacian_constant(0.0, k) == pytest.approx(
            math.gamma(2 * a) * math.sin(math.pi * a) / math.pi, rel=1e-13)

    def test_zero_is_root_of_transcendental(self):
        a = 0.4
        k = KernelParams(a)
        lhs = frac_laplacian_constant(0.0, k) * math.pi
        assert lhs == pytest.approx(math.gamma(2 * a) * math.sin(math.pi * a), rel=1e-13)

    def test_killing_coefficient_is_the_duplication_formula(self):
        # Gamma(2a) sin(pi a) / pi, by the duplication and reflection
        # formulas, is 2^(2a-1) Gamma(a + 1/2) / (sqrt(pi) Gamma(1 - a))
        for a in np.linspace(0.01, 0.99, 99):
            a = float(a)
            want = 2.0 ** (2.0 * a - 1.0) * math.gamma(a + 0.5) / (
                math.sqrt(math.pi) * math.gamma(1.0 - a))
            assert killing_coefficient(KernelParams(a)) == pytest.approx(want, rel=1e-13), a

    def test_windows(self):
        with pytest.raises(DomainError):
            frac_laplacian_constant(0.9, KernelParams(0.4))
        k = KernelParams(0.4)
        assert killing_coefficient(k) == frac_laplacian_constant(0.0, k)
