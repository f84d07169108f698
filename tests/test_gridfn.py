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
