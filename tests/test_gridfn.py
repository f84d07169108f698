import math
from pathlib import Path

import numpy as np
import pytest

import whml
from whml.errors import DomainError
from whml.gridfn import GridFunction


def test_construction_guards():
    with pytest.raises(DomainError):
        GridFunction(np.ones(8), 0.1)
    with pytest.raises(DomainError):
        GridFunction(np.ones(32), -0.1)
    bad = np.ones(32)
    bad[3] = np.nan
    with pytest.raises(DomainError):
        GridFunction(bad, 0.1)


@pytest.mark.parametrize("h", [math.inf, math.nan, 1e308, np.float64(1e308)])
def test_refuses_a_non_finite_spacing_or_length(h):
    # h = 1e308 is finite, but the grid's end 15 h is not
    with pytest.raises(DomainError, match="finite length"):
        GridFunction(np.ones(16), h)


@pytest.mark.parametrize("make", [
    lambda: GridFunction(np.zeros(20, dtype=complex), 0.1),
    lambda: GridFunction(np.full(20, 1.0 + 2.0j), 0.1),
    lambda: GridFunction(["a"] * 20, 0.1),
    lambda: GridFunction([None] * 20, 0.1),
    lambda: GridFunction(np.ones(20, dtype=object), 0.1),
    lambda: GridFunction(np.ones(20), "0.1"),
    lambda: GridFunction.from_function(lambda x: (1.0 + 1.0j) * x, 1.0, 20),
], ids=["complex-zero-imaginary", "complex", "str", "None", "object", "str-h", "from_function"])
def test_refuses_what_is_not_real_numbers(make):
    with pytest.raises(DomainError, match="must be real"):
        make()


def test_geometry():
    u = GridFunction(np.zeros(65), 0.25)
    assert u.n == 65
    assert u.length == pytest.approx(16.0)
    assert u.xs[1] == pytest.approx(0.25)


def test_evaluation_and_zero_outside():
    u = GridFunction.from_function(lambda x: math.sin(x), 6.0, 512)
    assert u(1.3) == pytest.approx(math.sin(1.3), abs=1e-8)
    assert u(-0.5) == 0.0
    assert u(7.0) == 0.0


def test_samples_immutable():
    u = GridFunction(np.zeros(32), 0.1)
    with pytest.raises(ValueError):
        u.samples[0] = 1.0


def test_compared_and_hashed_by_identity():
    u, v = GridFunction(np.ones(16), 1.0), GridFunction(np.ones(16), 1.0)
    assert u == u and u != v
    assert hash(u) == hash(u) and hash(u) != hash(v)
    assert len({u, v, u}) == 2


def test_from_function_rejects_short_grid_before_sampling():
    calls = []
    for n in (1, 0, 15):
        with pytest.raises(DomainError):
            GridFunction.from_function(calls.append, 1.0, n)
    assert calls == []


@pytest.mark.parametrize("n", [16.5, 2048.0, "32", None])
def test_from_function_refuses_a_non_integer_count_before_sampling(n):
    calls = []
    with pytest.raises(DomainError, match="integer n"):
        GridFunction.from_function(calls.append, 1.0, n)
    assert calls == []


def test_from_function_takes_a_numpy_integer_count():
    u = GridFunction.from_function(math.sin, 1.0, np.int64(17))
    assert u.n == 17 and u.h == 1.0 / 16


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def _bump():
    return GridFunction.from_function(lambda x: x * x * math.exp(-x), 8.0, 2048)


@pytest.mark.parametrize("order", [0, 1, 2])
def test_scalar_call_is_the_array_call_to_the_bit(order):
    # a float argument takes the pure-Python panel sum, an array argument
    # PPoly; both must give the same bits everywhere, edges included
    u = _bump()
    f = u if order == 0 else u.derivative(order)
    L = u.length
    rng = np.random.default_rng(10)
    special = [0.0, -0.0, L, L * (1 + 1e-16), np.nextafter(L, 0.0), np.nextafter(L, 2 * L),
               np.nextafter(0.0, -1.0), math.nan, math.inf, -math.inf]
    points = np.concatenate([rng.uniform(-1.0, L + 1.0, 100_000), u.xs, special])
    scalar = [f(float(x)) for x in points]
    assert all(type(v) is float for v in scalar)
    np.testing.assert_array_equal(_bits(scalar), _bits(f(points)))
    # numpy float64 arguments take the scalar path as well
    np.testing.assert_array_equal(_bits([f(x) for x in u.xs]), _bits(f(u.xs)))
    for x in (math.nan, math.inf, -math.inf, -1e-300, L * (1 + 1e-15)):
        assert f(x) == 0.0


def test_real_scalar_call_skips_ppoly(monkeypatch):
    from scipy.interpolate import PPoly

    u = _bump()
    du, d2u = u.derivative(1), u.derivative(2)

    def refuse(*args, **kwargs):
        raise AssertionError("PPoly.__call__ called")

    monkeypatch.setattr(PPoly, "__call__", refuse)
    for x in (0.0, 0.37, float(u.xs[100]), np.float64(2.5), u.length, 9.0, math.nan):
        u(x), du(x), d2u(x)
    with pytest.raises(AssertionError, match="PPoly"):
        u(np.array([0.5, 1.0]))


def test_derivative_and_nodes_are_built_once():
    u = _bump()
    assert u.xs is u.xs and not u.xs.flags.writeable
    assert u._piecewise(1) is u._piecewise(1)
    assert u._piecewise(0)[0] is u._cubic()


def test_table_is_built_once_and_kept():
    u = _bump()
    builds = []

    def build():
        builds.append(1)
        return np.arange(3.0)

    first = u.table("probe", build)
    assert u.table("probe", build) is first
    assert builds == [1]
    assert u.table("other", lambda: np.arange(3.0)) is not first


def test_table_arrays_are_read_only():
    u = _bump()
    single = u.table("single", lambda: np.zeros(4))
    scale, a, b = u.table("tuple", lambda: (1.5, np.zeros(3), np.ones(2)))
    assert scale == 1.5
    for array in (single, a, b):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0


def test_coefficients_reproduce_the_spline_at_the_nodes():
    u = _bump()
    c = u.coefficients()
    assert c.shape == (4, u.n - 1) and not c.flags.writeable
    assert u.coefficients() is c
    nodes = u.xs[:-1]
    np.testing.assert_array_equal(c[0], u(nodes))
    np.testing.assert_array_equal(c[0], u.samples[:-1])
    np.testing.assert_array_equal(c[1], u.derivative(1)(nodes))
    np.testing.assert_array_equal(2.0 * c[2], u.derivative(2)(nodes))
    # between nodes the rows are the panel's powers of x - x_j
    s = 0.3 * u.h
    between = c.T @ s ** np.arange(4.0)
    np.testing.assert_allclose(between, u(nodes + s), rtol=1e-14, atol=1e-16)


def test_only_gridfn_reads_the_spline_internals():
    # the spline's storage and the grid function's cache belong to gridfn,
    # so does the decision that samples are real (no other module guards
    # on it), and kernel_m is the kernel's one array-first implementation
    offenders = []
    for path in sorted(Path(whml.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name != "gridfn.py":
            offenders += [(path.name, name)
                          for name in ("._cache", "._cubic(", "._piecewise(", ".is_real",
                                       "real grid function")
                          if name in text]
        if "_m_array" in text:
            offenders.append((path.name, "_m_array"))
    assert offenders == []
