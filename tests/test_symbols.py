import cmath
import math
import pickle

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whml.contour import _RationalSymbol
from whml.errors import DomainError, PoleError
from whml.specfun import principal_power
from whml.symbols import (
    XI_SATURATION,
    Regime,
    SpectralParams,
    beta_term,
    c1p_inf,
    c2p_inf,
    gamma1_mellin_term,
    mellin_symbol_residual,
    sine_ratio,
    unit_tables,
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


class TestBetaTerm:
    def test_tiny_alpha_has_no_pole(self):
        # 2a = 2e-14 lies within complex_beta's pole band, but B(sigma + i xi, 2a)
        # has no pole for sigma > 0 and a > 0
        val = beta_term(1e-14, 0.5, np.array([0.0, 3.0]))
        assert np.isfinite(val).all()
        expect = (math.sin(math.pi * 1e-14) / math.pi * math.gamma(0.5) * math.gamma(2e-14)
                  / math.gamma(0.5 + 2e-14))
        assert val[0] == pytest.approx(expect, rel=1e-12)

    def test_sigma_not_positive_is_refused(self):
        # the domain is Re(sigma + i xi) > 0, off the real axis too
        for sigma, xi in ((0.0, 0.0), (-0.5, 1.0), (0.0, 2.0), (math.nan, 0.0)):
            with pytest.raises(PoleError):
                beta_term(0.3, sigma, xi)
        with pytest.raises(PoleError):
            beta_term(0.3, np.array([0.5, -0.25]), 1.0)


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


# every closed form of the unit factor is this close to 40-digit mpmath, in
# relative terms: its phase 2 nu theta, below 4 pi, rounds to about 1e-15
ORACLE_REL = 4e-15
EPS = np.finfo(float).eps


def _mp_factors(sp, xi):
    """(c1, c2) at the float xi by 40-digit mpmath from the three principal
    powers (mpmath has no signed zero, so -0.0 is 0), or the one-sided
    limits at +-inf."""
    with mp.workdps(40):
        a, s, m = mp.mpf(sp.alpha), mp.mpf(sp.s), sp.m
        if math.isinf(xi):
            c1 = mp.mpc(1) if xi > 0 else mp.expjpi(2 * (m - s + a))
            return c1, mp.expjpi(-a) * (1 if xi > 0 else mp.expjpi(2 * (m - s + 2 * a)))
        x = mp.mpf(xi)
        tail = mp.power(mp.mpc(x, -1), s - 2 * a - m) * mp.power(mp.mpc(x, 1), m - s)
        return (1 + x * x) ** a * tail, mp.power(mp.mpc(0, -x), 2 * a) * tail


def _relative_error(got: complex, want) -> float:
    """|got - want| / |want|, and |got| where want is 0."""
    with mp.workdps(40):
        err = abs(mp.mpc(got) - want)
        return float(err / abs(want) if want != 0 else err)


def _three_powers(sp, x):
    """c1 as the composition of three principal powers: the old route."""
    a, s, m = sp.alpha, sp.s, sp.m
    return (principal_power(1.0 + x * x, a) * principal_power(x - 1j, s - 2.0 * a - m)
            * principal_power(x + 1j, m - s))


def _few_ulp(x):
    """How far the three principal powers may stray from the closed form:
    16 ulp at xi = 0 (7.3 seen on 20,000 edge triples), growing with their
    log-space exponents, of the size of log(1 + xi^2), whose rounding each
    exp carries into the product."""
    return 16.0 * EPS * (1.0 + np.log1p(x * x))


# ORACLE_XI: +-0, +-inf, and +-[1e-12, 1e12], three magnitudes a decade
_DECADES = np.logspace(-12.0, 12.0, 73)
ORACLE_XI = np.concatenate([[0.0, -0.0, np.inf, -np.inf], _DECADES, -_DECADES])


def _oracle_triples():
    """12 seeded triples in each window, alpha down to 1e-4."""
    rng = np.random.default_rng(2017)
    out = []
    for k in range(24):
        high = k % 2
        a = float(10.0 ** rng.uniform(-4.0, math.log10(0.5 + 0.5 * high)))
        p = float(math.exp(rng.uniform(math.log(1.05), math.log(20.0))))
        s = float(rng.uniform(high + 1.0 / p + 1e-3, high + 1.0 + 1.0 / p - 1e-3))
        out.append(SpectralParams(a, p, s))
    return out


class TestUnitFactorOracles:
    """The closed forms exp(2i nu arctan2(1, xi)) of c1 and
    (1 + xi^-2)^(-a) exp(i(2 nu arctan2(1, xi) - pi a sgn xi)) of c2 against
    40-digit mpmath, and c1 against the three principal powers."""

    @pytest.mark.parametrize("sp", _oracle_triples(), ids=str)
    def test_wiener_hopf_factors_against_mpmath(self, sp):
        c1, c2 = wh_c1(ORACLE_XI, sp), wh_c2(ORACLE_XI, sp)
        for x, got1, got2 in zip(ORACLE_XI.tolist(), c1.tolist(), c2.tolist()):
            want1, want2 = _mp_factors(sp, x)
            assert _relative_error(got1, want1) <= ORACLE_REL, (x, got1)
            assert _relative_error(got2, want2) <= ORACLE_REL, (x, got2)
        assert c2[0] == 0 and c2[1] == 0

    @pytest.mark.parametrize("sp", _oracle_triples(), ids=str)
    def test_loop_unit_against_mpmath(self, sp):
        # the limits beyond the saturation, the value within it
        unit = sp.loop_symbol.unit(ORACLE_XI)
        beyond = np.copysign(np.inf, ORACLE_XI)
        for x, far, got in zip(ORACLE_XI.tolist(), beyond.tolist(), unit.tolist()):
            want = _mp_factors(sp, x if abs(x) <= XI_SATURATION else far)[0]
            assert _relative_error(got, want) <= ORACLE_REL, (x, got)

    @pytest.mark.parametrize("sp", _oracle_triples(), ids=str)
    def test_wh_c1_against_the_three_principal_powers(self, sp):
        x = ORACLE_XI[np.isfinite(ORACLE_XI)]
        assert (np.abs(wh_c1(x, sp) - _three_powers(sp, x)) <= _few_ulp(x)).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 255, 1024])
    def test_validation_unit_against_mpmath(self, n):
        # (xi+i)^n (xi-i)^(-n) is the same kernel at nu = n; its phase
        # 2 n theta rounds to an ulp of up to 2 pi n, so the bound grows with n
        unit = _RationalSymbol(n).unit_values(unit_tables(ORACLE_XI))
        bound = ORACLE_REL * max(1.0, n / 2.0)
        with mp.workdps(40):
            for x, got in zip(ORACLE_XI.tolist(), unit.tolist()):
                inner = abs(x) <= XI_SATURATION
                want = (mp.mpc(x, 1) / mp.mpc(x, -1)) ** n if inner else mp.mpc(1)
                assert _relative_error(got, want) <= bound, (x, got)


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
        # the unit factor is wh_c1's kernel within the saturation, bytes and
        # all, and wh_c1's limits beyond; it is within ORACLE_REL of 40-digit
        # mpmath there and within a few ulp of the three principal powers
        xs = np.append(XI_PROBES, [np.inf, -np.inf])
        unit = sym.unit(xs)
        inner = np.abs(xs) <= XI_SATURATION
        xf = xs[inner]
        assert unit[inner].tobytes() == wh_c1(xf, sp).tobytes()
        assert unit[~inner].tobytes() == wh_c1(np.copysign(np.inf, xs[~inner]), sp).tobytes()
        assert np.isfinite(unit).all()
        assert unit[-2] == 1.0 and unit[-1] == cmath.exp(2j * math.pi * sp.nu)
        for x, got in zip(xf.tolist(), unit[inner].tolist()):
            assert _relative_error(got, _mp_factors(sp, x)[0]) <= ORACLE_REL, x
        assert (np.abs(unit[inner] - _three_powers(sp, xf)) <= _few_ulp(xf)).all()

    def test_unit_takes_the_limits_beyond_the_saturation(self):
        # beyond XI_SATURATION the unit factor is its one-sided limit; wh_c1,
        # which has no saturation, returns its value, since its closed form
        # has no 1 + xi^2 to overflow
        sp = SpectralParams(0.75, 2.0, 2.3)
        unit = sp.loop_symbol.unit(np.array([1e200, -1e200]))
        assert unit.tobytes() == wh_c1(np.array([np.inf, -np.inf]), sp).tobytes()
        assert unit[0] == 1.0 and unit[1] == cmath.exp(2j * math.pi * sp.nu)
        far = wh_c1(np.array([1e200, -1e200]), sp)
        # c1(xi) = exp(2i nu arctan2(1, xi)), about 1 + 2i nu / xi out there
        assert far[0].real == 1.0 and far[0].imag == pytest.approx(2.0 * sp.nu / 1e200, rel=1e-15)
        assert far[1] == unit[1]  # pi - 1e-200 rounds to pi

    @settings(max_examples=300, deadline=None)
    @given(_admissible())
    def test_unit_jump_at_the_saturation_is_bounded(self, sp):
        # |e^(i phi) - 1| <= |phi| and arctan2(1, |xi|) < 1/|xi|, so across
        # +-XI_SATURATION the unit factor moves by at most
        # 2 |nu| / XI_SATURATION, plus the rounding of its two values
        for edge in (XI_SATURATION, -XI_SATURATION):
            pair = sp.loop_symbol.unit(np.array([edge, np.nextafter(edge, 2.0 * edge)]))
            assert abs(pair[1] - pair[0]) <= 2.0 * abs(sp.nu) / XI_SATURATION + 2.0 * ORACLE_REL

    def test_no_pole_scan_at_tiny_alpha(self):
        # 2a = 2e-14 lies within complex_beta's 1e-13 pole band, but the
        # beta factor has no pole for a > 0: the public Mellin factor and the
        # loop get the same values
        from whml.contour import build_loop, winding_number
        sp = SpectralParams(1e-14, 2.0, 0.9)
        x = XI_PROBES[np.abs(XI_PROBES) <= XI_SATURATION]
        composed = c1p_inf(x, sp) + gamma1_mellin_term(x, sp) * c2p_inf(x, sp)
        assert sp.loop_symbol.boundary(x).tobytes() == composed.tobytes()
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
