"""Uniformly sampled functions on [0, L] with plain-text import/export.

A grid function evaluates as its not-a-knot cubic spline, zero outside
[0, L].  Array arguments and complex samples go through scipy's ``PPoly``.
A real function at one Python float (the callbacks of adaptive quadrature)
is evaluated in pure Python on zero-copy views of the same breakpoints and
coefficient rows, repeating ``PPoly``'s own interval search and summation
order, so it returns the array call's bits at about a tenth of its cost.
Other modules read the coefficient rows through ``coefficients()`` and keep
their tables of a grid function on it through ``table(key, build)``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, is_integer

__all__ = ["GridFunction"]

_MIN_POINTS = 16


@dataclass(frozen=True)
class GridFunction:
    """A function sampled on the uniform grid x_j = j*h, j = 0..n-1.

    Immutable after construction; the cubic-spline evaluator is built lazily
    and treats the function as zero outside [0, L].
    """

    samples: np.ndarray
    h: float
    # built on first use: per derivative order the piecewise polynomial with
    # its scalar views (_piecewise), and each read-only table under its key
    # (table): the nodes, the coefficient rows and the tables of other modules.
    # xs and is_real, read on every call of the halfline routes, are cached
    # properties as well
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.ndim != 1 or samples.size < _MIN_POINTS:
            raise DomainError(f"GridFunction needs at least {_MIN_POINTS} samples")
        if not (self.h > 0.0 and math.isfinite(float(self.h) * (samples.size - 1))):
            raise DomainError("GridFunction needs spacing h > 0 and a finite length (n - 1) h")
        if not np.all(np.isfinite(samples)):
            raise DomainError("GridFunction samples must be finite")
        samples = samples.astype(complex) if np.iscomplexobj(samples) else samples.astype(float)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @classmethod
    def from_function(cls, f, length: float, n: int) -> "GridFunction":
        if not is_integer(n):
            raise DomainError(f"GridFunction.from_function needs an integer n, got {n!r}")
        if n < _MIN_POINTS:
            raise DomainError(f"GridFunction needs at least {_MIN_POINTS} samples")
        h = length / (n - 1)
        xs = h * np.arange(n)
        return cls(np.asarray([f(x) for x in xs]), h)

    def _piecewise(self, order: int = 0):
        """(pp, breaks, rows) of the spline's derivative of the given order
        (0: the spline), built on first use.  pp is the piecewise polynomial;
        for real samples, breaks and rows are memoryviews of pp.x and of the
        coefficient rows of (x - x_j)^0, (x - x_j)^1, ..., else None."""
        piece = self._cache.get(order)
        if piece is None:
            if order == 0:
                from scipy.interpolate import CubicSpline  # on first use, not at start-up
                pp = CubicSpline(self.xs, self.samples, extrapolate=False)
            else:
                pp = self._cubic().derivative(order)
            if self.is_real:
                piece = (pp, memoryview(pp.x), tuple(memoryview(r) for r in pp.c[::-1]))
            else:
                piece = (pp, None, None)
            self._cache[order] = piece
        return piece

    def _cubic(self) -> CubicSpline:
        """The not-a-knot cubic spline through the samples, built on first use."""
        return self._piecewise(0)[0]

    def table(self, key, build):
        """The table kept under key, built by build() on first use; every
        array in it, or in the tuple it is, is made read-only."""
        table = self._cache.get(key)
        if table is None:
            table = build()
            for part in table if isinstance(table, tuple) else (table,):
                if isinstance(part, np.ndarray):
                    part.setflags(write=False)
            self._cache[key] = table
        return table

    def coefficients(self) -> np.ndarray:
        """The spline's coefficient rows, read-only: c[k, j] multiplies
        (x - x_j)^k on panel j, k = 0..3."""
        return self.table("coefficients", lambda: self._cubic().c[::-1])

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def length(self) -> float:
        return self.h * (self.n - 1)

    @cached_property
    def xs(self) -> np.ndarray:
        """The nodes j*h, read-only and built once."""
        return self.table("xs", lambda: self.h * np.arange(self.n))

    @cached_property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.samples)

    def _evaluate(self, piece, x):
        """The piecewise polynomial of piece (see _piecewise) at x, zero
        outside [0, L]; a scalar x gives a float or a complex.

        A float x on real samples takes the panel j with x_j <= x < x_(j+1)
        (the last panel at x = L) and sums c_0 + c_1 s + c_2 s^2 + ... with
        s = x - x_j from the constant term up, as PPoly's find_interval and
        evaluate_poly1 do, so the result is the array call's to the bit.
        """
        pp, breaks, rows = piece
        if rows is not None and isinstance(x, float):
            x = float(x)
            last = len(breaks) - 1
            if not (0.0 <= x <= breaks[last]):  # also nan
                return 0.0
            j = min(bisect_right(breaks, x), last) - 1
            s = x - breaks[j]
            res = 0.0
            z = 1.0
            for row in rows:
                res = res + row[j] * z
                z = z * s
            return res
        length = self.length
        xa = np.asarray(x, dtype=float)
        inside = (xa >= 0.0) & (xa <= length)
        val = np.where(inside, pp(np.clip(xa, 0.0, length)), 0.0)
        if np.ndim(x) == 0:
            return complex(val) if np.iscomplexobj(val) else float(val)
        return val

    def __call__(self, x):
        """Spline evaluation, zero outside [0, L]."""
        return self._evaluate(self._piecewise(0), x)

    def derivative(self, order: int = 1):
        """Spline derivative as a callable, zero outside [0, L]; its
        piecewise polynomial is built once per order."""
        piece = self._piecewise(order)
        return lambda x: self._evaluate(piece, x)

    def save_text(self, path) -> None:
        """Two-column text: x and value ('#'-prefixed header)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# whml grid function\n")
            fh.write(f"# n={self.n} h={self.h:.17g}\n")
            fh.write("# x value\n")
            for x, v in zip(self.xs, self.samples):
                if np.iscomplexobj(self.samples):
                    fh.write(f"{x:.17g} {v.real:.17g}{v.imag:+.17g}j\n")
                else:
                    fh.write(f"{x:.17g} {v:.17g}\n")

    @classmethod
    def load_text(cls, path) -> "GridFunction":
        xs = []
        vals = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                fields = line.split()
                if len(fields) != 2:
                    raise DomainError(
                        f"grid file line {lineno}: expected 2 fields, got {len(fields)}")
                try:
                    x, v = float(fields[0]), complex(fields[1])
                except ValueError:
                    raise DomainError(
                        f"grid file line {lineno}: not a number in {line!r}") from None
                xs.append(x)
                vals.append(v)
        xs = np.asarray(xs)
        if xs.size < 2:
            raise DomainError("grid file holds fewer than two samples")
        steps = np.diff(xs)
        h = steps[0]
        if not np.allclose(steps, h, rtol=1e-10, atol=0.0):
            raise DomainError("grid file is not uniformly spaced")
        vals = np.asarray(vals)
        if np.all(vals.imag == 0.0):
            vals = vals.real
        return cls(vals, float(h))
