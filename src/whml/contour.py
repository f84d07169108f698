"""Assembly of the generalized-symbol loop, its minimum modulus, and the
winding number that carries the Fredholm index.

The loop lives on a six-segment closed contour.  Four segments are exact
(constants or the unit-modulus factor alone); the boundary segment mixes the
loop-function interpolants with the Mellin factor.  Each curved segment is
compactified through xi = tan(pi (t - 1/2)) so the infinite junctions are
honest endpoint limits.  The loop is one array of (segment index, t) pairs
with one evaluator: each segment maps t to xi, and a symbol is the pair of
its boundary value and its unit-modulus factor at xi, for a triple the
methods of its symbols.LoopSymbol, whose constants are computed once per
triple.  The base grid does not depend on the triple: it is built once per
n_base, in a small read-only cache, with the parts of the symbol that
depend on xi alone (symbols.boundary_tables on G1, symbols.unit_tables on
the others), so a triple's base values are its two kernels on those
tables.  One refinement pass per level bisects every interval of the loop
whose phase increment is not branch-safe; an interval still turning by
pi/2 or more at width 1e-12 is recorded on the loop, and the winding
refuses it.  The minimum modulus is polished once, at assembly, by a zoom
whose passes on G1 call the boundary kernel straight from t and reuse the
moduli at their two ends.
"""

from __future__ import annotations

import enum
import functools
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NotFredholmError, ResolutionError, is_integer
from .specfun import scalar_or_array
from .symbols import XI_SATURATION, SpectralParams, boundary_tables, unit_tables
# the loop reads the symbol through SpectralParams.loop_symbol; these names
# stay importable from this module, where perfbench's tracer looks them up
from .symbols import c1p_inf, c2p_inf, gamma1_mellin_term, wh_c1  # noqa: F401

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
_MIN_WIDTH = 1e-12
_POLISH_POINTS = 65
# np.linspace(a, b, _POLISH_POINTS) is _RAMP * step + a with its last point
# set to b, for step = (b - a) / (_POLISH_POINTS - 1) > 0
_RAMP = np.arange(_POLISH_POINTS, dtype=float)


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
    smallest sample's otherwise.  `unresolved` holds the indices i whose
    interval from sample i to i + 1 the refinement left still turning the
    phase by pi/2 or more, at width 1e-12 or less.  An empty loop is
    refused.
    """

    def __init__(self, segment_index, t, values, closure_gap, junction_gaps,
                 min_modulus=None, unresolved=()):
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
        self.unresolved = tuple(int(i) for i in unresolved)

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
    xi = np.tan(np.pi * (t - 0.5))
    if t.min() > 0.0 and t.max() < 1.0:
        return xi
    return np.where(t <= 0.0, -np.inf, np.where(t >= 1.0, np.inf, xi))


def _lambda_down(t):
    """Half-line coordinate running from +inf (t=0) to 0 (t=1)."""
    return np.where(t <= 0.0, np.inf,
                    np.where(t >= 1.0, 0.0, np.tan(np.pi * (1.0 - t) / 2.0)))


def _lambda_up(t):
    """Half-line coordinate running from 0 (t=0) to +inf (t=1)."""
    return _lambda_down(1.0 - t)


def _saturated(xi):
    """xi, with the one-sided limit +-inf beyond |xi| = XI_SATURATION."""
    return np.where(np.abs(xi) < XI_SATURATION, xi, np.copysign(np.inf, xi))


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


def _segment_xi(seg_index, t):
    """xi at the (segment index, t) pairs, and the number of G1 pairs,
    which lead.  seg_index is nondecreasing, as along the loop, so each
    segment present is one run of pairs, mapped to xi as a slice."""
    ends = np.searchsorted(seg_index, np.arange(1, len(SEGMENT_ORDER) + 1)).tolist()
    xi = np.empty(t.shape)
    start = 0
    for seg, end in zip(SEGMENT_ORDER, ends):
        if end > start:
            xi[start:end] = _SEGMENT_XI[seg](t[start:end])
        start = end
    return xi, ends[0]


def _loop_values(boundary, unit, seg_index, t):
    """Symbol values at the (segment index, t) pairs: one boundary(xi) call
    for the G1 points and one unit(xi) call for the others.  Pairs on one
    segment, as in most refinement passes, take one map and one call."""
    k = seg_index[0]
    if k == seg_index[-1]:
        xi = _SEGMENT_XI[SEGMENT_ORDER[k]](t)
        return boundary(xi) if k == 0 else unit(xi)
    xi, g1 = _segment_xi(seg_index, t)
    out = np.empty(t.shape, dtype=complex)
    if g1 > 0:
        out[:g1] = boundary(xi[:g1])
    out[g1:] = unit(xi[g1:])
    return out


class _BaseGrid(NamedTuple):
    """The loop's base grid at one n_base, and the parts of the symbol on
    it that depend on xi alone; every array is read-only."""

    seg_index: np.ndarray
    t: np.ndarray
    last: np.ndarray  # each segment's last index; -1 closes G2M on G1
    wide: np.ndarray  # diff(t) > _MIN_WIDTH: the intervals refinement may split
    g1: int           # the number of G1 points, which lead
    boundary: tuple   # symbols.boundary_tables of the G1 points
    unit: tuple       # symbols.unit_tables of the other points


def _base_grid(n_base) -> _BaseGrid:
    """The base grid of n_base points on each curved segment, built once
    per n_base."""
    _check_count("build_loop's n_base", n_base, 64)
    return _tabled_grid(int(n_base))


@functools.lru_cache(maxsize=4)
def _tabled_grid(n_base: int) -> _BaseGrid:
    # n_base points on each curved segment (G1, G3P, G3M), and fewer on the
    # constant segments between them in traversal order
    counts = [n_base, max(2, n_base // 8)] * 3
    base = sum(counts)
    if base > _MAX_POINTS:
        raise DomainError(
            f"n_base = {n_base} needs {base} loop points before refinement; "
            f"the cap is {_MAX_POINTS}"
        )
    seg_index = np.repeat(np.arange(len(SEGMENT_ORDER)), counts)
    t = np.concatenate([np.linspace(0.0, 1.0, c) for c in counts[:2]] * 3)
    xi, g1 = _segment_xi(seg_index, t)
    last = np.append(np.flatnonzero(np.diff(seg_index)), -1)
    grid = _BaseGrid(seg_index, t, last, np.diff(t) > _MIN_WIDTH, g1,
                     boundary_tables(xi[:g1]), unit_tables(xi[g1:]))
    for a in (seg_index, t, last, grid.wide, *grid.boundary, *grid.unit):
        a.flags.writeable = False
    return grid


def eval_segment(seg: Segment, t, sp: SpectralParams):
    """Value of the generalized symbol at parameter t of one segment.
    Accepts an array of t and returns the array of values."""
    ta = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((ta >= 0.0) & (ta <= 1.0)):
        raise DomainError("segment parameter must lie in [0, 1]")
    if seg not in SEGMENT_ORDER:
        raise DomainError(f"unknown segment {seg!r}")
    sym = sp.loop_symbol
    out = _loop_values(sym.boundary, sym.unit, np.full(ta.shape, SEGMENT_ORDER.index(seg)), ta)
    return scalar_or_array(out.reshape(np.shape(t)))


def _refine(f, seg_index: np.ndarray, t: np.ndarray, v: np.ndarray, wide: np.ndarray,
            budget: int):
    """Bisect every interval of the loop whose phase increment is not
    branch-safe, in one batched pass per level, until none is left.

    v holds the values at the (seg_index, t) pairs and wide is
    diff(t) > _MIN_WIDTH; f evaluates the pairs added.  An interval is
    split when its endpoint values differ in phase by at least _PHASE_CAP
    (or one of them is zero) and it is wider than _MIN_WIDTH, so no
    junction, where t falls from 1 to 0, is split.  Each decision depends
    only on the interval's own endpoints, so every segment's grid does not
    depend on the order of the splits.  Raises once more than `budget`
    points would be added.  Also returns the indices of the intervals left
    turning by at least _PHASE_CAP.
    """
    added = 0
    while True:
        v0, v1 = v[:-1], v[1:]
        nonzero = (v0 != 0) & (v1 != 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            dphi = np.where(nonzero, np.abs(np.angle(v1 / v0)), math.pi)
        turning = dphi >= _PHASE_CAP
        idx = np.flatnonzero(turning & wide)
        if idx.size == 0:
            return seg_index, t, v, np.flatnonzero(turning)
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
        wide = np.diff(t) > _MIN_WIDTH


def _check_count(what: str, value, least: int) -> None:
    if not is_integer(value) or value < least:
        raise DomainError(f"{what} must be an integer >= {least}, got {value!r}")


def _loop(grid: _BaseGrid, f, values: np.ndarray, polish) -> SymbolLoop:
    """The refined loop from the values at the base grid's points: f
    evaluates the (segment index, t) pairs the refinement adds, and
    polish(k, t) the points of the minimum's zoom on segment k."""
    seg_index, t, values, unresolved = _refine(f, grid.seg_index, grid.t, values, grid.wide,
                                               _MAX_POINTS - grid.t.size)
    # each segment's last point against the next one's first, G2M closing on G1
    last = grid.last if t is grid.t else np.append(np.flatnonzero(np.diff(seg_index)), -1)
    junction_gaps = np.abs(values[last] - values[last + 1]).tolist()
    if any(g > _JUNCTION_TOL for g in junction_gaps):
        raise ResolutionError(
            f"junction gaps {junction_gaps} exceed {_JUNCTION_TOL}"
        )
    return SymbolLoop(seg_index, t, values, junction_gaps[-1], junction_gaps,
                      _polished_min_modulus(polish, seg_index, t, values), unresolved)


def _assemble(boundary, unit, n_base: int) -> SymbolLoop:
    """Refined loop of the symbol given by its (boundary, unit) pair."""
    grid = _base_grid(n_base)
    f = functools.partial(_loop_values, boundary, unit)
    return _loop(grid, f, f(grid.seg_index, grid.t), lambda k, x: f(np.full(x.shape, k), x))


def build_loop(sp: SpectralParams, n_base: int = 256) -> SymbolLoop:
    """Assemble and refine the generalized-symbol loop for one parameter set.

    The base grid's values come from the triple's kernels on the grid's
    xi-only tables; each polish pass on G1 maps t to xi with one tan and,
    when every xi is within the saturation, calls the boundary kernel
    directly.  Both equal _assemble over sym.boundary and sym.unit bit for
    bit."""
    grid = _base_grid(n_base)
    sym = sp.loop_symbol
    f = functools.partial(_loop_values, sym.boundary, sym.unit)
    values = np.empty(grid.t.shape, dtype=complex)
    values[:grid.g1] = sym.boundary_values(*grid.boundary)
    values[grid.g1:] = sym.unit_values(*grid.unit)

    def polish(k, x):
        if k == 0:
            # _xi_line without its endpoint case: t = 0 or 1 gives |xi| > 1e16
            xi = np.tan(np.pi * (x - 0.5))
            if (np.abs(xi) <= XI_SATURATION).all():
                return sym.boundary_kernel(np.tanh(math.pi * xi), 1j * xi)
        return f(np.full(x.shape, k), x)

    return _loop(grid, f, values, polish)


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


def _polished_min_modulus(polish, seg_index, t, values) -> float:
    """Minimum |value| over the refined loop, polished by a zoom search on
    [a, b], the discrete argmin's two parameter intervals on its own
    segment k: each pass takes _POLISH_POINTS equally spaced points and
    keeps the two cells around their argmin (at least 32-fold narrower),
    until b - a < 1e-14.  The pass's ends a and b are points already
    evaluated, so it evaluates only the inner points, in one polish(k, t)
    call, and reuses the moduli at its ends."""
    mods = np.abs(values)
    i = int(np.argmin(mods))
    best = float(mods[i])

    k = int(seg_index[i])
    lo = i - 1 if i > 0 and seg_index[i - 1] == k else i
    hi = i + 1 if i + 1 < len(t) and seg_index[i + 1] == k else i
    a, b = float(t[lo]), float(t[hi])
    ends = mods[lo], mods[hi]
    while b - a >= 1e-14:
        x = _RAMP * ((b - a) / (_POLISH_POINTS - 1)) + a
        x[-1] = b
        mods = np.empty(_POLISH_POINTS)
        mods[0], mods[-1] = ends
        mods[1:-1] = np.abs(polish(k, x[1:-1]))
        j = int(np.argmin(mods))
        best = min(best, float(mods[j]))
        lo, hi = max(j - 1, 0), min(j + 1, _POLISH_POINTS - 1)
        a, b = float(x[lo]), float(x[hi])
        ends = mods[lo], mods[hi]
    return best


def winding_number(loop: SymbolLoop) -> int:
    """Winding of the loop about the origin from unwrapped phase increments.

    Requires the loop to stay away from the origin (min modulus above
    FREDHOLM_TOL) and every interval of it to turn the phase by less than
    pi/2 (none left unresolved by the refinement); the accumulated phase
    must land on an integer multiple of 2 pi to within 1 percent.  Reads
    the minimum modulus kept on the loop.
    """
    if loop.min_modulus <= FREDHOLM_TOL:
        raise NotFredholmError(
            f"loop minimum modulus is below {FREDHOLM_TOL}; winding undefined"
        )
    if loop.unresolved:
        seg_index, t, _ = loop.arrays()
        i = loop.unresolved[0]
        raise ResolutionError(
            f"{len(loop.unresolved)} loop interval(s) still turn the phase by pi/2 or "
            f"more at width {_MIN_WIDTH:g}, the first on "
            f"{SEGMENT_ORDER[seg_index[i]].value} from t = {float(t[i]):.17g}"
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
        seg_index, t, values = loop.arrays()
        names = [seg.value for seg in SEGMENT_ORDER]
        for k, tk, re, im in zip(seg_index.tolist(), t.tolist(), values.real.tolist(),
                                 values.imag.tolist()):
            buf.write(f"{names[k]},{tk:.17g},{re:.17g},{im:.17g}\n")
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
