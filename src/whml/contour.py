"""Assembly of the generalized-symbol loop, its minimum modulus, and the
winding number that carries the Fredholm index.

The loop lives on a six-segment closed contour.  Four segments are exact
(constants or the unit-modulus factor alone); the boundary segment mixes the
loop-function interpolants with the Mellin factor.  Each curved segment is
compactified through xi = tan(pi (t - 1/2)) so the infinite junctions are
honest endpoint limits.  The loop is one array of (segment index, t) pairs
with one evaluator: each segment maps t to xi, and a symbol is the pair of
its boundary value and its unit-modulus factor at xi.  One refinement pass
per level bisects every interval of the loop whose phase increment is not
branch-safe, and the minimum modulus is polished once, at assembly.
"""

from __future__ import annotations

import enum
import functools
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NotFredholmError, ResolutionError, is_integer
from .specfun import scalar_or_array
from .symbols import (
    SpectralParams,
    c1p_inf,
    c2p_inf,
    gamma1_mellin_term,
    wh_c1,
)

__all__ = [
    "Segment",
    "ContourPoint",
    "SymbolLoop",
    "eval_segment",
    "build_loop",
    "build_validation_loop",
    "min_modulus",
    "winding_number",
    "export_loop",
    "FREDHOLM_TOL",
]

FREDHOLM_TOL = 1e-4

_MAX_POINTS = 10 ** 6
_PHASE_CAP = math.pi / 2.0
_JUNCTION_TOL = 1e-6
_XI_SATURATION = 1e8
_POLISH_POINTS = 65


class Segment(enum.Enum):
    G1 = "G1"
    G2P = "G2P"
    G3P = "G3P"
    G4 = "G4"
    G3M = "G3M"
    G2M = "G2M"


# traversal order of the closed contour
SEGMENT_ORDER = (
    Segment.G1,
    Segment.G2P,
    Segment.G3P,
    Segment.G4,
    Segment.G3M,
    Segment.G2M,
)


@dataclass(frozen=True)
class ContourPoint:
    segment: Segment
    t: float
    value: complex


class SymbolLoop:
    """Ordered closed polyline of symbol values with its continuity audit.

    The samples are held as read-only arrays (segment index into
    SEGMENT_ORDER, t, value); `points` gives the same samples as
    ContourPoint records, built on first use.  `min_modulus` is the
    smallest |value| on the loop: the polished one for a built loop, the
    smallest sample's otherwise.  An empty loop is refused.
    """

    def __init__(self, segment_index, t, values, closure_gap, junction_gaps,
                 min_modulus=None):
        arrays = (np.asarray(segment_index, dtype=np.intp), np.asarray(t, dtype=float),
                  np.asarray(values, dtype=complex))
        if arrays[2].size == 0:
            raise DomainError("a symbol loop needs at least one point")
        for a in arrays:
            a.flags.writeable = False
        self._arrays = arrays
        self._points = None
        self.closure_gap = closure_gap
        self.junction_gaps = tuple(junction_gaps)
        if min_modulus is None:
            min_modulus = float(np.min(np.abs(arrays[2])))
        self.min_modulus = min_modulus

    @property
    def points(self) -> tuple:
        if self._points is None:
            seg_index, t, values = self._arrays
            segments = [SEGMENT_ORDER[k] for k in seg_index.tolist()]
            self._points = tuple(map(ContourPoint, segments, t.tolist(), values.tolist()))
        return self._points

    def arrays(self) -> tuple:
        """Read-only (segment index, t, value) arrays in traversal order."""
        return self._arrays

    def values(self) -> np.ndarray:
        """Read-only array of the point values, in traversal order."""
        return self._arrays[2]


def _xi_line(t):
    """Compactified coordinate for a full line, t in [0, 1] -> xi."""
    return np.where(t <= 0.0, -np.inf,
                    np.where(t >= 1.0, np.inf, np.tan(np.pi * (t - 0.5))))


def _lambda_down(t):
    """Half-line coordinate running from +inf (t=0) to 0 (t=1)."""
    return np.where(t <= 0.0, np.inf,
                    np.where(t >= 1.0, 0.0, np.tan(np.pi * (1.0 - t) / 2.0)))


def _lambda_up(t):
    """Half-line coordinate running from 0 (t=0) to +inf (t=1)."""
    return _lambda_down(1.0 - t)


def _boundary_value(xi, sp: SpectralParams):
    """Symbol on the boundary segment: c1p + (mellin term) * c2p, with the
    one-sided limits beyond |xi| = _XI_SATURATION."""
    inner = np.abs(xi) <= _XI_SATURATION
    x = xi[inner]
    out = np.empty(xi.shape, dtype=complex)
    out[inner] = c1p_inf(x, sp) + gamma1_mellin_term(x, sp) * c2p_inf(x, sp)
    if not inner.all():
        out[~inner] = wh_c1(np.where(xi[~inner] > 0.0, -np.inf, np.inf), sp)
    return out


def _saturated(xi):
    """xi, with the one-sided limit +-inf beyond |xi| = _XI_SATURATION."""
    return np.where(np.abs(xi) < _XI_SATURATION, xi, np.copysign(np.inf, xi))


# xi(t) of each segment; the symbol is its boundary value at xi on G1 and
# its unit-modulus factor at xi on the five others
_SEGMENT_XI = {
    Segment.G1: _xi_line,
    Segment.G2P: lambda t: np.full(t.shape, -np.inf),
    Segment.G3P: lambda t: _saturated(-_lambda_down(t)),
    Segment.G4: lambda t: np.zeros(t.shape),
    Segment.G3M: lambda t: _saturated(_lambda_up(t)),
    Segment.G2M: lambda t: np.full(t.shape, np.inf),
}


def _loop_values(boundary, unit, seg_index, t):
    """Symbol values at the (segment index, t) pairs: one boundary(xi) call
    for the G1 points and one unit(xi) call for the others.  Only the
    segments present are mapped to xi."""
    xi = np.empty(t.shape)
    for k in np.unique(seg_index):
        on = seg_index == k
        xi[on] = _SEGMENT_XI[SEGMENT_ORDER[k]](t[on])
    out = np.empty(t.shape, dtype=complex)
    on_g1 = seg_index == 0
    if on_g1.any():
        out[on_g1] = boundary(xi[on_g1])
    if not on_g1.all():
        out[~on_g1] = unit(xi[~on_g1])
    return out


def _symbol(sp: SpectralParams) -> tuple:
    """The generalized symbol's (boundary, unit) pair of functions of xi."""
    return (lambda xi: _boundary_value(xi, sp)), (lambda xi: wh_c1(xi, sp))


def eval_segment(seg: Segment, t, sp: SpectralParams):
    """Value of the generalized symbol at parameter t of one segment.
    Accepts an array of t and returns the array of values."""
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((ta >= 0.0) & (ta <= 1.0)):
        raise DomainError("segment parameter must lie in [0, 1]")
    if seg not in SEGMENT_ORDER:
        raise DomainError(f"unknown segment {seg!r}")
    out = _loop_values(*_symbol(sp), np.full(ta.shape, SEGMENT_ORDER.index(seg)), ta)
    return scalar_or_array(out.reshape(np.shape(t)))


def _refine(f, seg_index: np.ndarray, t: np.ndarray, budget: int):
    """Bisect every interval of the loop whose phase increment is not
    branch-safe, in one batched pass per level, until none is left.

    An interval is split when its endpoint values differ in phase by at
    least _PHASE_CAP (or one of them is zero) and it is wider than 1e-12,
    so no junction, where t falls from 1 to 0, is split.  Each decision
    depends only on the interval's own endpoints, so every segment's grid
    does not depend on the order of the splits.  Raises once more than
    `budget` points would be added.
    """
    v = f(seg_index, t)
    added = 0
    while True:
        v0, v1 = v[:-1], v[1:]
        nonzero = (v0 != 0) & (v1 != 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            dphi = np.where(nonzero, np.abs(np.angle(v1 / v0)), math.pi)
        idx = np.flatnonzero((dphi >= _PHASE_CAP) & (np.diff(t) > 1e-12))
        if idx.size == 0:
            return seg_index, t, v
        added += idx.size
        if added > budget:
            raise ResolutionError(
                "phase refinement exhausted the point budget; "
                "the loop may pass through the origin"
            )
        k, tm = seg_index[idx], 0.5 * (t[idx] + t[idx + 1])
        seg_index = np.insert(seg_index, idx + 1, k)
        t = np.insert(t, idx + 1, tm)
        v = np.insert(v, idx + 1, f(k, tm))


def _check_count(what: str, value, least: int) -> None:
    if not is_integer(value) or value < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")


def _assemble(boundary, unit, n_base: int) -> SymbolLoop:
    """Refined loop of the symbol given by its (boundary, unit) pair."""
    _check_count("build_loop's n_base", n_base, 64)
    # n_base points on each curved segment (G1, G3P, G3M), and fewer on the
    # constant segments between them in traversal order
    counts = [n_base, max(2, n_base // 8)] * 3
    base = sum(counts)
    if base > _MAX_POINTS:
        raise DomainError(
            f"n_base = {n_base} needs {base} loop points before refinement; "
            f"the cap is {_MAX_POINTS}"
        )
    f = functools.partial(_loop_values, boundary, unit)
    seg_index = np.repeat(np.arange(len(SEGMENT_ORDER)), counts)
    t = np.concatenate([np.linspace(0.0, 1.0, c) for c in counts])
    seg_index, t, values = _refine(f, seg_index, t, _MAX_POINTS - base)

    # each segment's last point against the next one's first, G2M closing on G1
    last = np.append(np.flatnonzero(np.diff(seg_index)), -1)
    junction_gaps = np.abs(values[last] - values[last + 1]).tolist()
    if any(g > _JUNCTION_TOL for g in junction_gaps):
        raise ResolutionError(
            f"junction gaps {junction_gaps} exceed {_JUNCTION_TOL}"
        )
    return SymbolLoop(seg_index, t, values, junction_gaps[-1], junction_gaps,
                      _polished_min_modulus(f, seg_index, t, values))


def build_loop(sp: SpectralParams, n_base: int = 256) -> SymbolLoop:
    """Assemble and refine the generalized-symbol loop for one parameter set."""
    return _assemble(*_symbol(sp), n_base)


def build_validation_loop(n: int, n_base: int = 256) -> SymbolLoop:
    """Loop of the rational validation symbol (xi+i)^n (xi-i)^(-n), with
    known winding -n.

    Its two one-sided limits coincide, so the boundary and multiplier
    segments are constant and the whole loop reduces to the unit-circle
    curve, traversed clockwise n times.  DomainError for n > n_base: from
    about 1.5 n_base turns the n_base base points of that curve undersample
    it and the loop winds wrongly (26 for n = 100 at n_base 64).
    """
    _check_count("validation symbol order", n, 1)
    _check_count("build_loop's n_base", n_base, 64)
    if n > n_base:
        raise DomainError(f"validation symbol order {n} exceeds n_base {n_base}: "
                          "the loop is held to at most one turn per base point")

    def unit(xi):
        finite = np.isfinite(xi)
        xf = np.where(finite, xi, 0.0)
        return np.where(finite, ((xf + 1j) / (xf - 1j)) ** n, 1.0 + 0j)

    return _assemble(lambda xi: np.ones(xi.shape, dtype=complex), unit, n_base)


def min_modulus(loop: SymbolLoop) -> float:
    """Minimum |value| of the loop.  For a built loop it is the discrete
    minimum polished at assembly, so reading it costs no evaluation."""
    return loop.min_modulus


def _polished_min_modulus(f, seg_index, t, values) -> float:
    """Minimum |value| over the refined loop, polished by a zoom search on
    [a, b], the discrete argmin's two parameter intervals on its own
    segment: each pass evaluates _POLISH_POINTS equally spaced points in one
    call and keeps the two cells around their argmin (at least 32-fold
    narrower), until b - a < 1e-14."""
    mods = np.abs(values)
    i = int(np.argmin(mods))
    best = float(mods[i])

    k = seg_index[i]
    lo = i - 1 if i > 0 and seg_index[i - 1] == k else i
    hi = i + 1 if i + 1 < len(t) and seg_index[i + 1] == k else i
    a, b = float(t[lo]), float(t[hi])
    while b - a >= 1e-14:
        x = np.linspace(a, b, _POLISH_POINTS)
        mods = np.abs(f(np.full(x.shape, k), x))
        j = int(np.argmin(mods))
        best = min(best, float(mods[j]))
        a, b = float(x[max(j - 1, 0)]), float(x[min(j + 1, _POLISH_POINTS - 1)])
    return best


def winding_number(loop: SymbolLoop) -> int:
    """Winding of the loop about the origin from unwrapped phase increments.

    Requires the loop to stay away from the origin (min modulus above
    FREDHOLM_TOL); the accumulated phase must land on an integer
    multiple of 2 pi to within 1 percent.  Reads the minimum modulus kept
    on the loop.
    """
    if loop.min_modulus <= FREDHOLM_TOL:
        raise NotFredholmError(
            f"loop minimum modulus is below {FREDHOLM_TOL}; winding undefined"
        )
    vals = loop.values()
    closed = np.append(vals, vals[0])
    increments = np.angle(closed[1:] / closed[:-1])
    total = float(np.sum(increments)) / (2.0 * math.pi)
    rounded = round(total)
    if abs(total - rounded) > 0.01:
        raise ResolutionError(
            f"accumulated phase {total} is not within 0.01 of an integer"
        )
    return int(rounded)


def export_loop(loop: SymbolLoop, fmt: str = "csv") -> bytes:
    """Serialize the loop: CSV columns segment,t,re,im or an SVG polyline
    with a dashed unit-circle reference ring."""
    fmt = fmt.lower()
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("segment,t,re,im\n")
        for pt in loop.points:
            buf.write(
                f"{pt.segment.value},{pt.t:.17g},{pt.value.real:.17g},{pt.value.imag:.17g}\n"
            )
        return buf.getvalue().encode("utf-8")
    if fmt == "svg":
        vals = list(loop.values())
        vals.append(vals[0])  # closed polyline
        pts = " ".join(f"{v.real:.6f},{-v.imag:.6f}" for v in vals)
        svg = (
            '<svg xmlns="http://www.w3.org/2000/svg" '
            'viewBox="-1.6 -1.6 3.2 3.2">\n'
            '  <circle cx="0" cy="0" r="1" fill="none" stroke="#999" '
            'stroke-width="0.01" stroke-dasharray="0.05,0.05"/>\n'
            f'  <polyline points="{pts}" fill="none" stroke="#1f4e9c" '
            'stroke-width="0.012"/>\n'
            "</svg>\n"
        )
        return svg.encode("utf-8")
    raise DomainError(f"unknown export format {fmt!r}")
