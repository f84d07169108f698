"""Assembly of the generalized-symbol loop, its minimum modulus, and the
winding number that carries the Fredholm index.

The loop lives on a six-segment closed contour.  On the boundary segment
G1 the symbol mixes the loop-function interpolants with the Mellin factor;
on the five others it is the unit-modulus factor alone.  Each segment maps
t onto the symbol's own argument: G1 to xi through a tan, past the
symbol's saturation, and the others to theta = arctan2(1, xi), linear in
t.  The loop is one array of (segment index, t) pairs.  A loop symbol is
any object with boundary(xi), its value on the boundary segment,
unit_values(theta), its unit-modulus factor on the five others, and
rounding_scale(xi), the scale of the rounding error of one boundary value:
a triple's LoopSymbol, or the rational validation symbol, both on the
kernel symbols.unit_phase.  One function, _loop, builds every loop.  The
base grid does not depend on the symbol: it keeps the G1 xi and the theta
of the other points, so the base values are one boundary and one
unit_values call on those.  One function evaluates points on one segment,
for a refinement pass, a polish pass or eval_segment.  The grid built last
is kept, read-only: a grid near the point cap holds tens of MB.
One refinement pass per level bisects every interval of the loop whose
phase increment is not branch-safe; an interval still turning by pi/2 or
more at width 1e-12 is recorded on the loop, and the winding refuses it.
The minimum modulus is polished once, at assembly, in two evaluator
calls: a Chebyshev interpolant of the discrete minimum's bracket, whose
minimum Newton's method finds, and a check of the value there; the zoom
is the fallback when the check fails.
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
from .symbols import SpectralParams, unit_phase
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
# the fallback zoom's grid
_POLISH_POINTS = 65
# the polish's interpolant of the minimum's bracket, mapped onto s in [-1, 1]:
# the Chebyshev points of the first kind; the cosine matrix from samples
# there to Chebyshev coefficients, and the matrix from those to monomial
# coefficients (applied one after the other: their product has entries up
# to 9e4, which cost the coefficients digits); the interpolant's values on
# a grid of _START_POINTS s, where Newton starts.  The check allows
# _CHECK_ULPS ulp of the rounding scale.  At 12 points the sine ratios'
# pole, min(1/p, 1 - 1/p) off the real xi axis, made seven digest loops at
# n_base 256 (p from 14 to 19) fail the check.
_CHEB_POINTS = 16
_CHEB_ANGLES = np.pi * (np.arange(_CHEB_POINTS) + 0.5) / _CHEB_POINTS
_CHEB_NODES = np.cos(_CHEB_ANGLES)
_CHEB_COSINES = np.cos(np.outer(np.arange(_CHEB_POINTS), _CHEB_ANGLES)) * (2.0 / _CHEB_POINTS)
_CHEB_COSINES[0] *= 0.5
_CHEB_TO_MONOMIAL = np.column_stack(
    [np.pad(np.polynomial.chebyshev.cheb2poly(e), (0, _CHEB_POINTS))[:_CHEB_POINTS]
     for e in np.eye(_CHEB_POINTS)])
_START_POINTS = 129
_START_VALUES = np.polynomial.chebyshev.chebvander(
    np.linspace(-1.0, 1.0, _START_POINTS), _CHEB_POINTS - 1) @ _CHEB_COSINES
_NEWTON_STEPS = 8
_CHECK_ULPS = 128


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
    refused, and so are arrays that are not 1-D or differ in length,
    segment indices that are not integers or lie outside SEGMENT_ORDER,
    t that is nan or outside [0, 1], values whose modulus is nan or
    infinite, and a min_modulus that is nan or outside [0, the smallest
    sample's].
    """

    def __init__(self, segment_index, t, values, closure_gap, junction_gaps,
                 min_modulus=None, unresolved=()):
        arrays = (np.asarray(segment_index), np.asarray(t, dtype=float),
                  np.asarray(values, dtype=complex))
        seg_index, t, values = arrays
        if values.size == 0:
            raise DomainError("a symbol loop needs at least one point")
        if any(a.shape != values.shape or a.ndim != 1 for a in arrays):
            raise DomainError("a symbol loop needs 1-D segment index, t and value arrays "
                              f"of one length, got shapes {[a.shape for a in arrays]}")
        if seg_index.dtype.kind not in "iu" or not (
                0 <= seg_index.min() <= seg_index.max() < len(SEGMENT_ORDER)):
            raise DomainError(f"a symbol loop's segment indices must be integers in "
                              f"0..{len(SEGMENT_ORDER) - 1}")
        if not ((t >= 0.0) & (t <= 1.0)).all():  # nan fails both
            raise DomainError("a symbol loop's t must lie in [0, 1]")
        moduli = np.abs(values)
        if not (moduli < math.inf).all():  # nan fails too
            raise DomainError("a symbol loop's values must have a finite modulus")
        self._arrays = (seg_index.astype(np.intp, copy=False), t, values)
        for a in self._arrays:
            a.flags.writeable = False
        self._points = None
        self.closure_gap = closure_gap
        self.junction_gaps = tuple(junction_gaps)
        smallest = float(np.min(moduli))
        if min_modulus is None:
            min_modulus = smallest
        if not 0.0 <= min_modulus <= smallest:  # nan fails too
            raise DomainError(f"a symbol loop's min_modulus must lie in [0, {smallest!r}], "
                              f"the least sample modulus, got {min_modulus!r}")
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
    """Compactified coordinate for a full line, t in [0, 1] -> xi; |xi| is
    about 1.6e16, beyond the saturation, at t = 0 and 1."""
    return np.tan(np.pi * (t - 0.5))


# the symbol's argument at t on each segment in SEGMENT_ORDER: xi on G1 and
# theta = arctan2(1, xi) on the others, for xi from -inf to 0 on G3P, from 0
# to +inf on G3M, and at -inf, 0 and +inf on G2P, G4 and G2M
_SEGMENT_ARG = (
    _xi_line,                                  # G1, xi
    lambda t: np.full(t.shape, np.pi),         # G2P, theta
    lambda t: np.pi * (1.0 - t / 2.0),         # G3P
    lambda t: np.full(t.shape, np.pi / 2.0),   # G4
    lambda t: np.pi * (1.0 - t) / 2.0,         # G3M
    lambda t: np.zeros(t.shape),               # G2M
)


def _segment_args(seg_index, t):
    """The symbol's argument at the (segment index, t) pairs, and the
    number of G1 pairs, which lead and take xi.  seg_index is nondecreasing,
    as along the loop, so each segment present is one run of pairs, mapped
    as a slice."""
    ends = np.searchsorted(seg_index, np.arange(1, len(SEGMENT_ORDER) + 1)).tolist()
    arg = np.empty(t.shape)
    start = 0
    for arg_of, end in zip(_SEGMENT_ARG, ends):
        if end > start:
            arg[start:end] = arg_of(t[start:end])
        start = end
    return arg, ends[0]


def _segment_values(sym, k, t):
    """Symbol values at the parameters t of segment k: one map to the
    segment's argument and one sym.boundary(xi) call on G1 or one
    sym.unit_values(theta) call on the others."""
    arg = _SEGMENT_ARG[k](t)
    return sym.boundary(arg) if k == 0 else sym.unit_values(arg)


class _SegmentEvaluator(NamedTuple):
    """A loop symbol as the polish reads it: polish(k, t) is
    _segment_values, and polish.scale(k, t) the scale of the rounding error
    of the value at one t: sym.rounding_scale(xi) on G1, 1 on the others,
    where the value is a unit-modulus phase."""

    sym: object

    def __call__(self, k, t):
        return _segment_values(self.sym, k, t)

    def scale(self, k, t: float) -> float:
        return self.sym.rounding_scale(float(_xi_line(t))) if k == 0 else 1.0


def _loop_values(sym, seg_index, t):
    """Symbol values at the (segment index, t) pairs: one sym.boundary(xi)
    call for the G1 points and one sym.unit_values(theta) call for the
    others.  Pairs on one segment, as in most refinement passes, go to
    _segment_values."""
    k = seg_index[0]
    if k == seg_index[-1]:
        return _segment_values(sym, k, t)
    return _argument_values(sym, *_segment_args(seg_index, t))


def _argument_values(sym, arg, g1):
    """Symbol values at the arguments arg, the first g1 of them G1 xi and
    at least one theta after them."""
    out = np.empty(arg.shape, dtype=complex)
    if g1 > 0:
        out[:g1] = sym.boundary(arg[:g1])
    out[g1:] = sym.unit_values(arg[g1:])
    return out


class _BaseGrid(NamedTuple):
    """The loop's base grid at one n_base, with the symbol's argument at
    its points; every array is read-only."""

    seg_index: np.ndarray
    t: np.ndarray
    last: np.ndarray  # each segment's last index; -1 closes G2M on G1
    wide: np.ndarray  # diff(t) > _MIN_WIDTH: the intervals refinement may split
    arg: np.ndarray   # xi at the G1 points, which lead, theta at the others


def _base_grid(n_base) -> _BaseGrid:
    """The base grid of n_base points on each curved segment; the grid of
    the last n_base is kept."""
    _check_count("build_loop's n_base", n_base, 64)
    return _tabled_grid(int(n_base))


@functools.lru_cache(maxsize=1)
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
    last = np.append(np.flatnonzero(np.diff(seg_index)), -1)
    arg = _segment_args(seg_index, t)[0]
    grid = _BaseGrid(seg_index, t, last, np.diff(t) > _MIN_WIDTH, arg)
    for a in grid:
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
    out = _segment_values(sp.loop_symbol, SEGMENT_ORDER.index(seg), ta)
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


def _loop(sym, n_base) -> SymbolLoop:
    """The refined loop of a loop symbol: an object with boundary(xi) and
    unit_values(theta), as LoopSymbol has.  Its base values are read at
    the base grid's tabled arguments, G1's up to its last index."""
    grid = _base_grid(n_base)
    values = _argument_values(sym, grid.arg, grid.last[0] + 1)
    f = functools.partial(_loop_values, sym)
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
                      _polished_min_modulus(_SegmentEvaluator(sym), seg_index, t, values),
                      unresolved)


def build_loop(sp: SpectralParams, n_base: int = 256) -> SymbolLoop:
    """Assemble and refine the generalized-symbol loop for one parameter set."""
    return _loop(sp.loop_symbol, n_base)


class _RationalSymbol:
    """The validation symbol (xi+i)^n (xi-i)^(-n) as a loop symbol: 1 on
    the boundary segment, and the unit phase kernel at nu = n elsewhere."""

    def __init__(self, n: int):
        self._n = n

    def boundary(self, xi: np.ndarray) -> np.ndarray:
        return np.ones(xi.shape, dtype=complex)

    def unit_values(self, theta) -> np.ndarray:
        return unit_phase(self._n, theta)

    def rounding_scale(self, xi: float) -> float:
        return 1.0


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
    return _loop(_RationalSymbol(n), n_base)


def min_modulus(loop: SymbolLoop) -> float:
    """Minimum |value| of the loop.  For a built loop it is the discrete
    minimum polished at assembly, so reading it costs no evaluation."""
    return loop.min_modulus


def _polished_min_modulus(polish, seg_index, t, values) -> float:
    """Minimum |value| over the refined loop, polished on [a, b], the
    discrete argmin's two parameter intervals on its own segment k, in two
    polish(k, x) calls, or by the zoom when the check below fails.

    1. The interpolant: p, the polynomial through the values at the
       _CHEB_POINTS Chebyshev points of the first kind on [a, b], in s =
       (x - mid) / half.  On the bracket the value is analytic in t, so p
       converges geometrically in the number of points (Trefethen, 2013,
       ch. 8).  Newton on Re(conj(p) p') from the least |p| on a grid of s
       gives x*.
    2. The check: the values at x* and its two float neighbours.

    The check.  Each value carries a rounding error of a few ulp of its
    rounding scale S (polish.scale: |c1p| + |gamma1 c2p| on the boundary
    segment, bounded by taking |gamma1| at xi = 0, and 1 on the
    unit-modulus others).  p weights the samples by Lagrange polynomials
    whose moduli sum to at most 2.8 at 16 Chebyshev points (the Lebesgue
    constant), so where p resolves the value, |p(x*) - v(x*)| is a few
    times that: 3.5 ulp of S in the median over the loop digest at n_base
    256, and 45 at most at n_base 256 and 1024.  _CHECK_ULPS = 128 leaves a
    margin of about three.  Where p does not resolve the value, as across
    the saturation edge or on a bracket that reaches toward a pole of the
    sine ratios (p above 6 at n_base 64), it misses by more: by 142 ulp and
    up on the digest, where 22 loops at n_base 64 fall back.  Then the zoom
    (_zoom_min_modulus) polishes [a, b] again.

    Returns the least modulus sampled: the discrete minimum, the Chebyshev
    and check samples and any zoom's, so never more than the discrete
    minimum.
    """
    mods = np.abs(values)
    i = int(np.argmin(mods))
    # |v| of an array and of one complex may round an ulp apart; take the less
    best = min(float(mods[i]), abs(complex(values[i])))
    k = int(seg_index[i])
    lo = i - 1 if i > 0 and seg_index[i - 1] == k else i
    hi = i + 1 if i + 1 < len(t) and seg_index[i + 1] == k else i
    a, b = float(t[lo]), float(t[hi])
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    v = polish(k, mid + half * _CHEB_NODES)
    coeffs = (_CHEB_TO_MONOMIAL @ (_CHEB_COSINES @ v)).tolist()[::-1]
    s = 2.0 * int(np.argmin(np.abs(_START_VALUES @ v))) / (_START_POINTS - 1) - 1.0
    x = min(max(mid + half * _newton_min(coeffs, s), a), b)
    check = polish(k, np.array([math.nextafter(x, a), x, math.nextafter(x, b)]))
    best = min(best, float(np.min(np.abs(v))), float(np.min(np.abs(check))))
    p = _horner(coeffs, (x - mid) / half)[0]
    if abs(p - check[1]) <= _CHECK_ULPS * 2.0 ** -52 * polish.scale(k, x):
        return best
    return min(best, _zoom_min_modulus(polish, k, a, b))


def _horner(coeffs, s: float) -> tuple:
    """p(s), p'(s) and p''(s) / 2 of the polynomial with the monomial
    coefficients coeffs, the highest first."""
    p = dp = ddp = 0j
    for c in coeffs:
        ddp = ddp * s + dp
        dp = dp * s + p
        p = p * s + c
    return p, dp, ddp


def _newton_min(coeffs, s: float) -> float:
    """Newton's method on g = Re(conj(p) p'), half of d|p|^2/ds, from s, kept
    in [-1, 1]: at most _NEWTON_STEPS steps, stopping once a step is below
    1e-14 or where g' = |p'|^2 + Re(conj(p) p'') is not positive."""
    for _ in range(_NEWTON_STEPS):
        p, dp, ddp = _horner(coeffs, s)
        pc = p.conjugate()
        slope = abs(dp) ** 2 + 2.0 * (pc * ddp).real
        if not slope > 0.0:
            break
        step = (pc * dp).real / slope
        s = min(max(s - step, -1.0), 1.0)
        if abs(step) < 1e-14:
            break
    return s


def _zoom_min_modulus(polish, k: int, a: float, b: float) -> float:
    """The least modulus of a zoom on [a, b] of segment k: each pass
    evaluates the _POLISH_POINTS points of linspace(a, b) and keeps the two
    cells around their argmin, until b - a < 1e-14."""
    best = math.inf
    while b - a >= 1e-14:
        x = np.linspace(a, b, _POLISH_POINTS)
        mods = np.abs(polish(k, x))
        j = int(np.argmin(mods))
        best = min(best, float(mods[j]))
        a, b = float(x[max(j - 1, 0)]), float(x[min(j + 1, _POLISH_POINTS - 1)])
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
    fmt = fmt.lower() if isinstance(fmt, str) else fmt
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
