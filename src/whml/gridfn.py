"""Uniformly sampled functions on [0, L] with plain-text import/export."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import DomainError

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
    _spline: list = field(default_factory=list, repr=False, compare=False)

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.ndim != 1 or samples.size < _MIN_POINTS:
            raise DomainError(f"GridFunction needs at least {_MIN_POINTS} samples")
        if not (self.h > 0.0):
            raise DomainError("GridFunction needs spacing h > 0")
        if not np.all(np.isfinite(samples)):
            raise DomainError("GridFunction samples must be finite")
        samples = samples.astype(complex) if np.iscomplexobj(samples) else samples.astype(float)
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)

    @classmethod
    def from_function(cls, f, length: float, n: int) -> "GridFunction":
        if n < _MIN_POINTS:
            raise DomainError(f"GridFunction needs at least {_MIN_POINTS} samples")
        h = length / (n - 1)
        xs = h * np.arange(n)
        return cls(np.asarray([f(x) for x in xs]), h)

    def _cubic(self) -> CubicSpline:
        """The not-a-knot cubic spline through the samples, built on first use;
        its ``c[3 - k, j]`` multiplies ``(x - x_j)^k`` on panel j."""
        if not self._spline:
            self._spline.append(CubicSpline(self.xs, self.samples, extrapolate=False))
        return self._spline[0]

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def length(self) -> float:
        return self.h * (self.n - 1)

    @property
    def xs(self) -> np.ndarray:
        return self.h * np.arange(self.n)

    @property
    def is_real(self) -> bool:
        return not np.iscomplexobj(self.samples)

    def _evaluate(self, pp, x):
        """The piecewise polynomial pp (the spline or a derivative of it) at
        x, zero outside [0, L]; a scalar x gives a float or a complex."""
        length = self.length
        xa = np.asarray(x, dtype=float)
        inside = (xa >= 0.0) & (xa <= length)
        val = np.where(inside, pp(np.clip(xa, 0.0, length)), 0.0)
        if np.ndim(x) == 0:
            return complex(val) if np.iscomplexobj(val) else float(val)
        return val

    def __call__(self, x):
        """Spline evaluation, zero outside [0, L]."""
        return self._evaluate(self._cubic(), x)

    def derivative(self, order: int = 1):
        """Spline derivative as a callable, zero outside [0, L]."""
        d = self._cubic().derivative(order)
        return lambda x: self._evaluate(d, x)

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
