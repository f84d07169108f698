import math

import numpy as np
import pytest

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


def test_text_round_trip_real(tmp_path):
    u = GridFunction.from_function(lambda x: x * math.exp(-x), 5.0, 64)
    path = tmp_path / "u.txt"
    u.save_text(path)
    v = GridFunction.load_text(path)
    assert v.h == pytest.approx(u.h, rel=1e-15)
    np.testing.assert_allclose(v.samples, u.samples, rtol=0, atol=0)


def test_text_round_trip_complex(tmp_path):
    vals = np.exp(1j * np.linspace(0, 3, 40)) * np.linspace(1, 2, 40)
    u = GridFunction(vals, 0.05)
    path = tmp_path / "u.txt"
    u.save_text(path)
    v = GridFunction.load_text(path)
    np.testing.assert_allclose(v.samples, u.samples, rtol=0, atol=0)


def test_header_lines_ignored(tmp_path):
    path = tmp_path / "u.txt"
    lines = ["# a header", "# another"]
    lines += [f"{0.1 * j:.17g} {float(j):.17g}" for j in range(20)]
    path.write_text("\n".join(lines) + "\n")
    v = GridFunction.load_text(path)
    assert v.n == 20
    assert v(0.5) == pytest.approx(5.0, abs=1e-12)


def test_from_function_rejects_short_grid_before_sampling():
    calls = []
    for n in (1, 0, 15):
        with pytest.raises(DomainError):
            GridFunction.from_function(calls.append, 1.0, n)
    assert calls == []


def test_load_text_names_the_malformed_line(tmp_path):
    path = tmp_path / "u.txt"
    lines = ["# header"] + [f"{0.1 * j:.17g} {float(j):.17g}" for j in range(20)]
    lines[5] += " 7.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DomainError, match="line 6"):
        GridFunction.load_text(path)
    lines[5] = "0.4"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DomainError, match="line 6"):
        GridFunction.load_text(path)


@pytest.mark.parametrize("row", ["0.1 abc", "foo 1"])
def test_load_text_names_the_unparsable_line(tmp_path, row):
    path = tmp_path / "u.txt"
    lines = ["# header"] + [f"{0.1 * j:.17g} {float(j):.17g}" for j in range(20)]
    lines[5] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DomainError, match="line 6"):
        GridFunction.load_text(path)


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


def test_complex_samples_keep_the_ppoly_route(monkeypatch):
    from scipy.interpolate import PPoly

    vals = np.exp(1j * np.linspace(0.0, 3.0, 64)) * np.linspace(1.0, 2.0, 64)
    u = GridFunction(vals, 0.05)
    L = u.length
    xs = [0.0, 0.123, 1.5, L, L + 0.1, -0.2, math.nan]
    expect = u(np.array(xs))
    for x, want in zip(xs, expect):
        got = u(x)
        assert type(got) is complex
        assert got == want
    assert u.derivative(1)(0.7) == u.derivative(1)(np.array([0.7]))[0]
    calls = []
    real_call = PPoly.__call__
    monkeypatch.setattr(PPoly, "__call__", lambda *a, **kw: calls.append(1) or real_call(*a, **kw))
    u(0.5)
    assert calls == [1]


def test_derivative_and_nodes_are_built_once():
    u = _bump()
    assert u.xs is u.xs and not u.xs.flags.writeable
    assert u._piecewise(1) is u._piecewise(1)
    assert u._piecewise(0)[0] is u._cubic()
