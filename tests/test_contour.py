import cmath
import csv
import functools
import io
import math
import xml.etree.ElementTree as ET
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import whml.contour as contour_mod
from whml.contour import (
    FREDHOLM_TOL,
    SEGMENT_ORDER,
    ContourPoint,
    Segment,
    SymbolLoop,
    build_loop,
    build_validation_loop,
    eval_segment,
    export_loop,
    min_modulus,
    winding_number,
)
from whml.errors import DomainError, NotFredholmError, ResolutionError
from whml.symbols import (XI_SATURATION, LoopSymbol, SpectralParams, c1p_inf, c2p_inf,
                          gamma1_mellin_term, wh_c1)

SP_MODEL = SpectralParams(0.4, 2.0, 1.4)
SP_LOW = SpectralParams(0.3, 2.0, 1.2)


class TestEvalSegment:
    def test_constant_segments(self):
        nu = SP_LOW.nu
        for t in (0.0, 0.33, 1.0):
            assert eval_segment(Segment.G4, t, SP_LOW) == pytest.approx(
                cmath.exp(1j * math.pi * nu), abs=1e-14)
            assert eval_segment(Segment.G2M, t, SP_LOW) == pytest.approx(1.0, abs=1e-15)
            assert eval_segment(Segment.G2P, t, SP_LOW) == pytest.approx(
                cmath.exp(2j * math.pi * nu), abs=1e-14)

    def test_constant_segments_are_wh_c1_at_their_xi(self):
        ts = np.linspace(0.0, 1.0, 7)
        for sp in (SP_LOW, SP_MODEL, SpectralParams(0.75, 2.0, 2.3)):
            for seg, xi in ((Segment.G2P, -math.inf), (Segment.G4, 0.0),
                            (Segment.G2M, math.inf)):
                assert eval_segment(seg, 0.4, sp) == wh_c1(xi, sp)
                assert np.array_equal(eval_segment(seg, ts, sp),
                                      wh_c1(np.full(ts.shape, xi), sp))

    def test_model_boundary_midpoint(self):
        # at zero frequency with nu = 0 the boundary value is
        # 1 - (sin(0.4 pi)/pi) B(1.1, 0.8) * (pure sine-ratio value)
        from whml.specfun import complex_beta
        from whml.symbols import c2p_inf
        val = eval_segment(Segment.G1, 0.5, SP_MODEL)
        expect = 1.0 - (math.sin(0.4 * math.pi) / math.pi) * complex(
            complex_beta(1.1, 0.8)) * c2p_inf(0.0, SP_MODEL)
        assert val == pytest.approx(expect, rel=1e-12)
        assert abs(val) > 0.6

    def test_parameter_range(self):
        with pytest.raises(DomainError):
            eval_segment(Segment.G1, 1.5, SP_LOW)

    def test_curved_segment_ends_are_the_one_sided_limits(self):
        # G1 runs from xi = -inf to +inf, where the boundary value takes
        # c1's limits at +inf and -inf; G3P from -inf to 0 and G3M from 0
        # to +inf
        ends = ((Segment.G1, math.inf, -math.inf), (Segment.G3P, -math.inf, 0.0),
                (Segment.G3M, 0.0, math.inf))
        for sp in (SP_LOW, SP_MODEL, SpectralParams(0.75, 2.0, 2.3)):
            for seg, at_0, at_1 in ends:
                for t, xi in ((0.0, at_0), (1.0, at_1)):
                    mine, limit = eval_segment(seg, t, sp), wh_c1(xi, sp)
                    assert np.complex128(mine).tobytes() == np.complex128(limit).tobytes(), (
                        sp, seg, t)


class TestBuildLoop:
    def test_junction_chain(self):
        loop = build_loop(SP_LOW, 128)
        assert all(g < 1e-6 for g in loop.junction_gaps)
        assert loop.closure_gap < 1e-6
        # junction values named in the traversal order
        nu = SP_LOW.nu
        seg_of = {seg: [p for p in loop.points if p.segment is seg]
                  for seg in Segment}
        assert seg_of[Segment.G1][-1].value == pytest.approx(
            cmath.exp(2j * math.pi * nu), abs=1e-9)
        assert seg_of[Segment.G3P][-1].value == pytest.approx(
            cmath.exp(1j * math.pi * nu), abs=1e-9)
        assert seg_of[Segment.G3M][-1].value == pytest.approx(1.0, abs=1e-9)

    def test_model_containment(self):
        loop = build_loop(SP_MODEL, 256)
        assert np.max(np.abs(loop.values() - 1.0)) < 0.4

    def test_refined_phase_increments(self):
        loop = build_loop(SP_LOW, 64)
        vals = loop.values()
        closed = np.append(vals, vals[0])
        dphi = np.abs(np.angle(closed[1:] / closed[:-1]))
        assert float(np.max(dphi)) < math.pi / 2

    def test_min_base_count(self):
        with pytest.raises(DomainError):
            build_loop(SP_LOW, 32)

    @pytest.mark.parametrize("n_base", [256.0, True, np.float64(256.0)])
    def test_loop_size_must_be_an_integer(self, n_base):
        with pytest.raises(DomainError, match="n_base must be an integer >= 64"):
            build_loop(SP_MODEL, n_base)

    @pytest.mark.parametrize("n", [1.5, 2.0, True, False, 0])
    def test_validation_order_must_be_an_integer(self, n):
        with pytest.raises(DomainError, match="order must be an integer >= 1"):
            build_validation_loop(n)

    def test_numpy_integers_accepted(self):
        loop = build_validation_loop(np.int64(2), np.int32(128))
        assert winding_number(loop) == -2
        assert len(build_loop(SP_MODEL, np.int64(64)).values()) > 0

    def test_base_counts_over_the_point_cap(self, monkeypatch):
        # refused before any evaluation: 3 * 340000 + 3 * 42500 base points
        # already exceed the 10^6 cap
        def no_evaluation(*args):
            raise AssertionError("loop evaluated before the point cap check")

        monkeypatch.setattr(contour_mod, "_loop_values", no_evaluation)
        for kernel in ("boundary_kernel", "unit_values"):
            monkeypatch.setattr(LoopSymbol, kernel, no_evaluation)
        with pytest.raises(DomainError):
            build_loop(SpectralParams(0.75, 2.0, 2.3), 340000)


class TestMinModulus:
    def test_model_bound(self):
        loop = build_loop(SP_MODEL, 256)
        assert min_modulus(loop) >= 0.6

    def test_unit_circle_subloop(self):
        # a loop made only of the unit-modulus factor has min modulus 1
        ts = np.linspace(0.0, 1.0, 257)
        values = wh_c1(np.tan(np.pi * ts / 2.000001), SP_LOW)
        seg_index = np.full(ts.shape, SEGMENT_ORDER.index(Segment.G3M))
        loop = SymbolLoop(seg_index, ts, values, 0.0, (0.0,) * 6)
        assert min_modulus(loop) == pytest.approx(1.0, abs=1e-12)

    def test_near_critical_dip(self):
        loop = build_loop(SpectralParams(0.75, 2.0, 2.226), 256)
        assert min_modulus(loop) < 0.05

    def test_seeded_sample_matches_sequential_golden_section(self, monkeypatch):
        # LOW, HIGH, and HIGH within 1e-7 to 1e-2 of the critical s
        calls = _recording(monkeypatch)
        triples = _polish_sample(34, seed=20)
        assert len(triples) >= 100
        for triple in triples:
            sp = SpectralParams(*triple)
            calls.clear()
            loop = build_loop(sp)
            _, polish = _split_calls(calls, loop)
            assert len(polish) <= 10, triple
            mm = min_modulus(loop)
            assert mm == pytest.approx(_golden_reference(loop, sp), rel=1e-13, abs=5e-15), triple
            assert mm <= float(np.min(np.abs(loop.values()))), triple


class TestWinding:
    def test_validation_symbols(self):
        for n in range(1, 5):
            loop = build_validation_loop(n, 256)
            assert winding_number(loop) == -n

    def test_every_order_up_to_n_base(self):
        # every order at n_base 64 and 256; at 1024 the lowest and highest 64
        orders = {64: range(1, 65), 256: range(1, 257),
                  1024: [*range(1, 65), *range(961, 1025)]}
        for n_base, ns in orders.items():
            for n in ns:
                assert winding_number(build_validation_loop(n, n_base)) == -n, (n, n_base)

    def test_order_over_n_base_refused(self):
        # unrefused, order 100 at n_base 64 winds 26 times
        with pytest.raises(DomainError, match="order 100 exceeds n_base 64"):
            build_validation_loop(100, 64)

    def test_low_regime_examples(self):
        assert winding_number(build_loop(SpectralParams(0.25, 4.0, 0.7), 256)) == 0

    def test_high_regime_split(self):
        assert winding_number(build_loop(SpectralParams(0.75, 2.0, 2.2), 256)) == -1
        assert winding_number(build_loop(SpectralParams(0.75, 2.0, 2.25), 256)) == 0

    def test_invariant_under_refinement(self):
        for sp in (SP_LOW, SpectralParams(0.75, 2.0, 2.2)):
            w1 = winding_number(build_loop(sp, 128))
            w2 = winding_number(build_loop(sp, 256))
            assert w1 == w2

    def test_not_fredholm_guard(self):
        loop = build_loop(SpectralParams(0.75, 2.0, 2.2260516), 256)
        assert min_modulus(loop) <= FREDHOLM_TOL
        with pytest.raises(NotFredholmError):
            winding_number(loop)

    def test_high_regime_grid(self):
        # index -1 below the critical smoothness, 0 above, across alpha x p
        from whml.transcend import alpha_c
        for a in (0.3, 0.5, 0.75):
            crit_off = alpha_c(a)
            for p in (1.5, 2.0, 3.0):
                below = SpectralParams(a, p, 1.0 + 1.0 / p + 0.5 * crit_off)
                above = SpectralParams(a, p, 1.0 + 1.0 / p + 0.5 * (crit_off + 1.0))
                assert winding_number(build_loop(below, 128)) == -1
                assert winding_number(build_loop(above, 128)) == 0


class TestCrossModuleIdentity:
    def test_boundary_segment_factors_through_transcend_pair(self):
        # the boundary value equals e^(i pi nu) sin(pi(1/p + nu' - i xi)) /
        # sin(pi(1/p - i xi)) times (T_s - T_B): the loop vanishes exactly
        # where the two transcendental sides meet
        from whml.symbols import beta_term, sine_ratio
        for sp in (SP_LOW, SpectralParams(0.75, 2.0, 2.2)):
            a, tau = sp.alpha, sp.tau
            for xi in (-3.1, -0.4, 0.0, 0.7, 2.9):
                common = cmath.exp(1j * math.pi * sp.nu) * (
                    cmath.sin(math.pi * (1.0 / sp.p + sp.nu_prime - 1j * xi))
                    / cmath.sin(math.pi * (1.0 / sp.p - 1j * xi))
                )
                sine_side = sine_ratio(1.0 + a - tau, 1.0 + 2.0 * a - tau, xi)
                beta_side = beta_term(a, tau + 1.0 - 2.0 * a, xi)
                expect = common * complex(sine_side - beta_side)
                t = 0.5 + math.atan(xi) / math.pi
                assert eval_segment(Segment.G1, t, sp) == pytest.approx(
                    expect, rel=1e-10, abs=1e-12)


class TestHomotopy:
    def test_low_regime_deformation_to_model(self):
        # a parameter path inside the admissible window never drops the
        # minimum modulus to zero, so the winding cannot change
        start = (0.25, 4.0, 0.7)
        end = (0.4, 2.0, 1.4)
        for step in range(21):
            t = step / 20.0
            a = start[0] + t * (end[0] - start[0])
            p = start[1] + t * (end[1] - start[1])
            # keep s inside the moving window by interpolating tau
            tau = (start[2] - 1.0 / start[1]) + t * (
                (end[2] - 1.0 / end[1]) - (start[2] - 1.0 / start[1]))
            sp = SpectralParams(a, p, tau + 1.0 / p)
            loop = build_loop(sp, 128)
            assert min_modulus(loop) > 1e-3
            assert winding_number(loop) == 0


class TestExport:
    def test_csv_shape_and_parse_back(self):
        loop = build_loop(SP_LOW, 64)
        blob = export_loop(loop, "csv")
        rows = list(csv.reader(io.StringIO(blob.decode("utf-8"))))
        assert rows[0] == ["segment", "t", "re", "im"]
        assert len(rows) == len(loop.points) + 1
        z = complex(float(rows[1][2]), float(rows[1][3]))
        assert z == pytest.approx(loop.points[0].value, rel=1e-15)

    def test_svg_closed_polyline(self):
        loop = build_loop(SP_LOW, 64)
        blob = export_loop(loop, "svg")
        root = ET.fromstring(blob.decode("utf-8"))
        assert root.get("viewBox") == "-1.6 -1.6 3.2 3.2"
        ns = "{http://www.w3.org/2000/svg}"
        polyline = root.find(f"{ns}polyline")
        circle = root.find(f"{ns}circle")
        assert polyline is not None and circle is not None
        pts = polyline.get("points").split()
        assert pts[0] == pts[-1]

    def test_empty_loop_rejected(self):
        with pytest.raises(DomainError):
            export_loop(SymbolLoop([], [], [], 0.0, (0.0,) * 6), "csv")
        with pytest.raises(DomainError, match="at least one point"):
            SymbolLoop([], [], [], 0.0, (0.0,) * 6, min_modulus=1.0)

    def test_unknown_format(self):
        loop = build_loop(SP_LOW, 64)
        with pytest.raises(DomainError):
            export_loop(loop, "png")

    @pytest.mark.parametrize("seg_index, t, values", [
        ([0, 0, 0], [0.0, 0.5], [1, 1j, -1, -1j]),
        ([0, 0], [0.0, 0.5, 1.0], [1, 1j]),
        ([[0, 0]], [[0.0, 0.5]], [[1, 1j]]),
        (0, 0.0, 1.0),
        ([0, 6], [0.0, 0.5], [1, 1j]),
        ([-1, 0], [0.0, 0.5], [1, 1j]),
        ([0.7, 1.9], [0.0, 0.5], [1, 1j]),
        ([0, 0], [0.0, math.nan], [1, 1j]),
        ([0, 0], [0.0, 1.5], [1, 1j]),
        ([0, 0], [-0.5, 0.5], [1, 1j]),
        ([0, 0, 0], [0.0, 0.5, 1.0], [1, math.nan, 1j]),
        ([0, 0, 0], [0.0, 0.5, 1.0], [1, math.inf, 1j]),
        ([0, 0, 0], [0.0, 0.5, 1.0], [1, complex(0.0, -math.inf), 1j]),
    ], ids=["short t", "short values", "2-D", "0-D", "index 6", "index -1", "index 0.7",
            "t nan", "t 1.5", "t -0.5", "value nan", "value inf", "value -inf j"])
    def test_arrays_that_do_not_line_up_rejected(self, seg_index, t, values):
        # export_loop and points would drop or misname samples that
        # winding_number counts; a nan modulus would pass the not-Fredholm
        # test and end the winding in a bare ValueError
        with pytest.raises(DomainError, match="a symbol loop"):
            SymbolLoop(seg_index, t, values, 0.0, (0.0,) * 6)


README_TRIPLES = ((0.75, 2.0, 2.3), (0.4, 2.0, 1.4), (0.75, 2.0, 2.2), (0.25, 4.0, 0.7))


def _validation_value(seg, t, n):
    # closed form of the rational validation symbol on each segment
    if seg is Segment.G3P and t > 0.0:
        xi = -math.tan(math.pi * (1.0 - t) / 2.0)
    elif seg is Segment.G3M and t < 1.0:
        xi = math.tan(math.pi * t / 2.0)
    elif seg is Segment.G4:
        xi = 0.0
    else:
        return 1.0 + 0j
    return (complex(xi, 1.0) / complex(xi, -1.0)) ** n


def _sequential_golden_min(f, a, b):
    """Golden-section search on [a, b], one new point per step, stopping
    after 60 steps or once b - a < 1e-14: the reference for the polish of
    min_modulus."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = abs(complex(f(x1))), abs(complex(f(x2)))
    for _ in range(60):
        if f1 < f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - invphi * (b - a)
            f1 = abs(complex(f(x1)))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + invphi * (b - a)
            f2 = abs(complex(f(x2)))
        if b - a < 1e-14:
            break
    return min(f1, f2)


def _golden_reference(loop, sp):
    """The discrete minimum modulus, polished by the sequential search on
    the argmin's neighbouring intervals of its own segment."""
    seg_index, t, values = loop.arrays()
    i = int(np.argmin(np.abs(values)))
    k = seg_index[i]
    lo = i - 1 if i > 0 and seg_index[i - 1] == k else i
    hi = i + 1 if i + 1 < len(t) and seg_index[i + 1] == k else i
    best = float(abs(values[i]))
    if t[hi] <= t[lo]:
        return best
    return min(best, _sequential_golden_min(lambda x: eval_segment(SEGMENT_ORDER[k], x, sp),
                                            float(t[lo]), float(t[hi])))


def _polish_sample(n, seed):
    """n seeded triples in each of LOW, HIGH, and HIGH at |s - s_c| from
    1e-7 to 1e-2, with alpha in (0.02, 0.98) and p log-spread over (1.1, 20)."""
    from whml.transcend import alpha_c
    rng = np.random.default_rng(seed)
    out = []
    for cls in ("LOW", "HIGH", "NEAR"):
        for _ in range(n):
            p = float(np.exp(rng.uniform(math.log(1.1), math.log(20.0))))
            if cls == "LOW":
                a = float(rng.uniform(0.02, 0.48))
                s = 1.0 / p + float(rng.uniform(0.02, 0.98))
            elif cls == "HIGH":
                a = float(rng.uniform(0.02, 0.98))
                s = 1.0 + 1.0 / p + float(rng.uniform(0.02, 0.98))
            else:
                a = float(rng.uniform(0.02, 0.98))
                gap = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.0, -2.0))
                s = 1.0 + 1.0 / p + alpha_c(a) + gap
            out.append((a, p, s))
    return out


def _sequential_refine(f, n):
    """Midpoint refinement one interval at a time, splitting an interval and
    re-checking its left half before moving on: the reference for the
    batched refinement of build_loop.  Also returns the deepest level of a
    point: 0 on the base grid, and for a midpoint one more than the level
    of its interval's later endpoint, which is the batched pass that
    inserts it."""
    ts = list(np.linspace(0.0, 1.0, n))
    vals = [complex(f(t)) for t in ts]
    levels = [0] * n
    i = 0
    while i < len(ts) - 1:
        v0, v1 = vals[i], vals[i + 1]
        dphi = abs(cmath.phase(v1 / v0)) if v0 != 0 and v1 != 0 else math.pi
        if dphi >= math.pi / 2.0 and ts[i + 1] - ts[i] > 1e-12:
            tm = 0.5 * (ts[i] + ts[i + 1])
            ts.insert(i + 1, tm)
            vals.insert(i + 1, complex(f(tm)))
            levels.insert(i + 1, max(levels[i], levels[i + 1]) + 1)
        else:
            i += 1
    return np.array(ts), np.array(vals), max(levels)


def _recording(monkeypatch) -> list:
    """The (segment index, t) arrays of each later evaluation of a loop, in
    order: its base grid, each refinement pass and each polish pass, as
    the refinement and the polish receive them."""
    calls = []
    refine, polished = contour_mod._refine, contour_mod._polished_min_modulus

    def recording_refine(f, seg_index, t, v, wide, budget):
        calls.append((seg_index.copy(), t.copy()))

        def recording_f(k, tm):
            calls.append((k.copy(), tm.copy()))
            return f(k, tm)

        return refine(recording_f, seg_index, t, v, wide, budget)

    def recording_polished(polish, seg_index, t, values):
        def recording_polish(k, x):
            calls.append((np.full(x.shape, k), x.copy()))
            return polish(k, x)

        return polished(recording_polish, seg_index, t, values)

    monkeypatch.setattr(contour_mod, "_refine", recording_refine)
    monkeypatch.setattr(contour_mod, "_polished_min_modulus", recording_polished)
    return calls


def _split_calls(calls, loop):
    """The evaluations of one assembly, split into the base grid and the
    refinement passes, which evaluate every loop point exactly once, and
    the polish passes, each the inner points of a grid on the minimum's own
    segment."""
    seg_index, t, _ = loop.arrays()
    done = 0
    for j, (_, tc) in enumerate(calls):
        done += tc.size
        if done == t.size:
            refine, polish = calls[:j + 1], calls[j + 1:]
            break
    else:
        raise AssertionError("the evaluator calls do not cover the loop's points")
    seg_all = np.concatenate([sc for sc, _ in refine])
    t_all = np.concatenate([tc for _, tc in refine])
    order = np.lexsort((t_all, seg_all))
    assert np.array_equal(seg_all[order], seg_index) and np.array_equal(t_all[order], t)
    k = seg_index[int(np.argmin(np.abs(loop.values())))]
    for sc, tc in polish:
        assert tc.size == contour_mod._POLISH_POINTS - 2 and np.all(sc == k)
    return refine, polish


class TestArrayAssembly:
    def _check_points(self, loop, value_of):
        pts = loop.points
        for pt in pts:
            assert abs(pt.value - value_of(pt.segment, pt.t)) <= 1e-13
        for p0, p1 in zip(pts[:-1], pts[1:]):
            if p0.segment is p1.segment:
                dphi = abs(cmath.phase(p1.value / p0.value))
                assert dphi < math.pi / 2.0 or p1.t - p0.t <= 1e-12

    def test_points_match_pointwise_evaluation(self):
        for triple in README_TRIPLES:
            sp = SpectralParams(*triple)
            self._check_points(build_loop(sp, 256),
                               lambda seg, t, sp=sp: eval_segment(seg, t, sp))
        for n in range(1, 5):
            self._check_points(build_validation_loop(n, 256),
                               lambda seg, t, n=n: _validation_value(seg, t, n))

    def _check_refinement(self, calls, build, value_of, n_base):
        # the loop's grid and values against the sequential refinement of
        # each segment; one evaluator call for the base grid and one per level
        calls.clear()
        loop = build(n_base)
        refine, _ = _split_calls(calls, loop)
        seg_index, t, values = loop.arrays()
        levels = 0
        for k, seg in enumerate(SEGMENT_ORDER):
            n = n_base if seg in (Segment.G1, Segment.G3P, Segment.G3M) else max(2, n_base // 8)
            ref_t, ref_v, depth = _sequential_refine(lambda x, seg=seg: value_of(seg, x), n)
            levels = max(levels, depth)
            mine = seg_index == k
            assert np.array_equal(t[mine], ref_t)
            assert np.max(np.abs(values[mine] - ref_v)) <= 1e-13
        assert len(refine) == 1 + levels
        return levels

    def test_batched_refinement_matches_sequential(self, monkeypatch):
        # the near-critical triple needs midpoint insertions on G1, and the
        # order-64 validation symbol two levels on both G3P and G3M
        calls = _recording(monkeypatch)
        for triple, n_base, levels in (((0.75, 2.0, 2.226), 256, 1), ((0.3, 2.0, 1.2), 64, 0)):
            sp = SpectralParams(*triple)
            assert self._check_refinement(
                calls, lambda n_base, sp=sp: build_loop(sp, n_base),
                lambda seg, x, sp=sp: eval_segment(seg, x, sp), n_base) == levels
        assert self._check_refinement(
            calls, lambda n_base: build_validation_loop(64, n_base),
            lambda seg, x: _validation_value(seg, x, 64), 64) == 2
        assert len(build_loop(SpectralParams(0.75, 2.0, 2.226), 256).points) > 3 * 256 + 3 * 32

    def test_constructor_gives_points_and_arrays(self):
        built = build_loop(SpectralParams(0.75, 2.0, 2.2), 128)
        seg_index, t, values = built.arrays()
        loop = SymbolLoop(seg_index.tolist(), t.tolist(), values.tolist(),
                          built.closure_gap, built.junction_gaps)
        for mine, ref in zip(loop.arrays(), built.arrays()):
            assert np.array_equal(mine, ref) and mine.dtype == ref.dtype
            assert not mine.flags.writeable
        assert loop.points == built.points
        assert loop.points[5] == ContourPoint(SEGMENT_ORDER[seg_index[5]], t[5], values[5])
        assert np.array_equal(loop.values(), values)
        assert export_loop(loop, "csv") == export_loop(built, "csv")

    def test_min_modulus_cached(self, monkeypatch):
        # polished once at assembly; reading it and winding evaluate nothing
        calls = _recording(monkeypatch)
        loop = build_loop(SpectralParams(0.75, 2.0, 2.2), 128)
        _, polish = _split_calls(calls, loop)
        assert polish
        calls.clear()
        first = min_modulus(loop)
        assert first == loop.min_modulus < float(np.min(np.abs(loop.values())))
        assert min_modulus(loop) == first
        assert winding_number(loop) == -1
        assert calls == []

    def test_eval_segment_is_the_loop_evaluator(self):
        # the one-segment view gives the loop's values at its own points
        for triple in README_TRIPLES + ((0.75, 2.0, 2.226), (0.3, 2.0, 1.2)):
            sp = SpectralParams(*triple)
            seg_index, t, values = build_loop(sp, 128).arrays()
            for k, seg in enumerate(SEGMENT_ORDER):
                mine = seg_index == k
                assert np.array_equal(eval_segment(seg, t[mine], sp), values[mine])

    def test_batched_polish_matches_sequential_golden_section(self):
        for triple in README_TRIPLES + ((0.75, 2.0, 2.226),):
            sp = SpectralParams(*triple)
            loop = build_loop(sp, 128)
            seg_index, t, values = loop.arrays()
            i = int(np.argmin(np.abs(values)))
            seg = SEGMENT_ORDER[seg_index[i]]
            ref = min(float(abs(values[i])), _sequential_golden_min(
                lambda x: eval_segment(seg, x, sp), t[i - 1], t[i + 1]))
            assert min_modulus(loop) == pytest.approx(ref, rel=1e-13, abs=1e-16)


def _composed_symbol(sp):
    """The (boundary, unit) pair composed of the public factors, the
    reference of the loop's evaluator: c1p_inf + gamma1_mellin_term *
    c2p_inf on the boundary segment and wh_c1 on the five others, within
    |xi| <= XI_SATURATION, and wh_c1's one-sided limits beyond."""
    def boundary(xi):
        inner = np.abs(xi) <= XI_SATURATION
        x = xi[inner]
        out = np.empty(xi.shape, dtype=complex)
        out[inner] = c1p_inf(x, sp) + gamma1_mellin_term(x, sp) * c2p_inf(x, sp)
        if not inner.all():
            out[~inner] = wh_c1(np.where(xi[~inner] > 0.0, -np.inf, np.inf), sp)
        return out

    def unit(xi):
        inner = np.abs(xi) <= XI_SATURATION
        return wh_c1(np.where(inner, xi, np.copysign(np.inf, xi)), sp)

    return boundary, unit


def _gate_triples():
    """The golden files' 40 seeded triples and README triples, HIGH triples
    1e-5 and 1e-9 either side of the critical smoothness, and LOW triples
    1e-5 above s = 1/p."""
    from golden.make_golden import seeded_triples
    from whml.transcend import alpha_c
    out = list(seeded_triples()) + list(README_TRIPLES)
    for a in (0.2, 0.5, 0.9):
        s_c = 1.5 + alpha_c(a)
        out += [(a, 2.0, s_c + d) for d in (-1e-5, 1e-5, -1e-9, 1e-9)]
    out += [(a, p, 1.0 / p + 1e-5) for a, p in ((0.2, 2.0), (0.45, 1.3), (0.05, 7.0))]
    return out


# the t -> xi map of each segment, restated in the contour's floating-point
# operations: G1 runs over the whole line, G3P from -inf to 0 and G3M from 0
# to +inf, and G2P, G4 and G2M sit at -inf, 0 and +inf
_REFERENCE_XI = {
    Segment.G1: lambda t: np.tan(np.pi * (t - 0.5)),
    Segment.G2P: lambda t: np.full(t.shape, -np.inf),
    Segment.G3P: lambda t: -np.tan(np.pi * (1.0 - t) / 2.0),
    Segment.G4: lambda t: np.zeros(t.shape),
    Segment.G3M: lambda t: np.tan(np.pi * (1.0 - (1.0 - t)) / 2.0),
    Segment.G2M: lambda t: np.full(t.shape, np.inf),
}


def _reference_values(boundary, unit, seg_index, t):
    """The values of a (boundary, unit) pair of functions of xi at the
    (segment index, t) pairs: boundary(xi) on G1 and unit(xi) on the five
    other segments, one call per segment."""
    out = np.empty(t.shape, dtype=complex)
    for k, seg in enumerate(SEGMENT_ORDER):
        on = seg_index == k
        if on.any():
            xi = _REFERENCE_XI[seg](t[on])
            out[on] = boundary(xi) if seg is Segment.G1 else unit(xi)
    return out


def _reference_assemble(boundary, unit, n_base):
    """The loop of a (boundary, unit) pair assembled with no tables and
    none of the contour's evaluators: a fresh base grid evaluated through
    the restated segment maps, every refinement pass testing the widths
    anew, and every polish pass evaluating all _POLISH_POINTS points of
    its linspace."""
    f = functools.partial(_reference_values, boundary, unit)
    counts = [n_base, max(2, n_base // 8)] * 3
    seg_index = np.repeat(np.arange(len(SEGMENT_ORDER)), counts)
    t = np.concatenate([np.linspace(0.0, 1.0, c) for c in counts[:2]] * 3)
    v = f(seg_index, t)
    while True:
        v0, v1 = v[:-1], v[1:]
        nonzero = (v0 != 0) & (v1 != 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            dphi = np.where(nonzero, np.abs(np.angle(v1 / v0)), math.pi)
        turning = dphi >= math.pi / 2.0
        idx = np.flatnonzero(turning & (np.diff(t) > 1e-12))
        if idx.size == 0:
            break
        k, tm = seg_index[idx], 0.5 * (t[idx] + t[idx + 1])
        seg_index, t = np.insert(seg_index, idx + 1, k), np.insert(t, idx + 1, tm)
        v = np.insert(v, idx + 1, f(k, tm))
    last = np.append(np.flatnonzero(np.diff(seg_index)), -1)
    gaps = np.abs(v[last] - v[last + 1]).tolist()

    mods = np.abs(v)
    i = int(np.argmin(mods))
    best = float(mods[i])
    k = seg_index[i]
    lo = i - 1 if i > 0 and seg_index[i - 1] == k else i
    hi = i + 1 if i + 1 < len(t) and seg_index[i + 1] == k else i
    a, b = float(t[lo]), float(t[hi])
    n = contour_mod._POLISH_POINTS
    while b - a >= 1e-14:
        x = np.linspace(a, b, n)
        mods = np.abs(f(np.full(n, k), x))
        j = int(np.argmin(mods))
        best = min(best, float(mods[j]))
        a, b = float(x[max(j - 1, 0)]), float(x[min(j + 1, n - 1)])
    return SymbolLoop(seg_index, t, v, gaps[-1], gaps, best, np.flatnonzero(turning))


def _assert_same_loop(loop, ref, what):
    for mine, theirs in zip(loop.arrays(), ref.arrays()):
        assert np.array_equal(mine, theirs), what
        assert mine.tobytes() == theirs.tobytes(), what
    assert loop.min_modulus == ref.min_modulus, what
    assert loop.junction_gaps == ref.junction_gaps, what
    assert loop.closure_gap == ref.closure_gap, what
    assert loop.unresolved == ref.unresolved, what


def _validation_unit(n):
    """The unit factor of build_validation_loop(n), in its operations:
    exp(2i n theta) at theta = arctan2(1, xi) within |xi| <= XI_SATURATION,
    and at theta's limits 0 (xi > 0) and pi (xi < 0) beyond."""
    def unit(xi):
        inner = np.abs(xi) <= XI_SATURATION
        theta = np.where(inner, np.arctan2(1.0, xi), np.where(xi > 0.0, 0.0, math.pi))
        return np.exp(2j * n * theta)

    return unit


def _ones(xi):
    return np.ones(xi.shape, dtype=complex)


def test_only_symbols_computes_the_boundary_value():
    # LoopSymbol.boundary does the boundary value's xi-only work, and
    # symbols owns the saturation of every segment; contour maps t to xi
    # and calls the symbol, every loop's through the one protocol
    text = Path(contour_mod.__file__).read_text(encoding="utf-8")
    names = ("tanh", "boundary_kernel", "XI_SATURATION", "copysign", "isfinite", ".unit(")
    assert [name for name in names if name in text] == []


class TestLoopEvaluator:
    @pytest.mark.parametrize("n_base", [64, 128, 256, 1024])
    def test_tabled_loop_equals_the_reference_assembly(self, n_base):
        # the segment maps, the base grid's tables, the kernels and the
        # polish that reuses its ends, against the assembly with no tables
        # over the composed public factors: the same samples, bytes
        # included, and the same polished minimum; no loop leaves an
        # interval unresolved
        for triple in _gate_triples():
            sp = SpectralParams(*triple)
            loop = build_loop(sp, n_base)
            _assert_same_loop(loop, _reference_assemble(*_composed_symbol(sp), n_base), triple)
            assert loop.unresolved == (), triple

    @pytest.mark.parametrize("n_base", [64, 128, 256, 1024])
    def test_validation_loop_equals_the_reference_assembly(self, n_base):
        for n in (1, 2, 3, 4, n_base):
            loop = build_validation_loop(n, n_base)
            _assert_same_loop(loop, _reference_assemble(_ones, _validation_unit(n), n_base),
                              (n, n_base))

    def test_polish_past_the_saturation_takes_the_limits(self, monkeypatch):
        # a boundary value falling from 1 at xi = 0 to 0.1 at |xi| =
        # XI_SATURATION, beyond which the loop takes the limits 1 (nu = 0):
        # the polish zooms on the saturation edge with points on both sides
        def falling(self, tanh_pi_xi, i_xi):
            return (1.0 - 0.9 * (i_xi.imag / XI_SATURATION) ** 2) + 0j

        monkeypatch.setattr(LoopSymbol, "boundary_kernel", falling)
        sp = SpectralParams(0.25, 2.0, 2.25)
        assert sp.nu == 0.0
        loop = build_loop(sp)
        sym = sp.loop_symbol
        _assert_same_loop(loop, _reference_assemble(sym.boundary, sym.unit, 256), sp)
        assert loop.min_modulus == pytest.approx(0.1, abs=1e-6)

    def test_base_tables_are_built_once_per_n_base_and_read_only(self, monkeypatch):
        grids = []
        original = contour_mod._base_grid

        def recording(n_base):
            grids.append(original(n_base))
            return grids[-1]

        monkeypatch.setattr(contour_mod, "_base_grid", recording)
        sp = SpectralParams(0.75, 2.0, 2.3)
        for n_base in (256, 256, np.int64(256), 64):
            build_loop(sp, n_base)
        assert grids[0] is grids[1] is grids[2] and grids[3] is not grids[0]
        tables = []
        for grid in (grids[0], grids[3]):
            arrays = list(grid)
            for a in arrays:
                assert not a.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    a[0] = a[0]
            tables.append(arrays)
        for mine, theirs in zip(*tables):
            assert not np.shares_memory(mine, theirs)
        assert grids[0].t.size == 256 * 3 + 32 * 3 and grids[3].t.size == 64 * 3 + 8 * 3

    def test_only_the_last_base_grid_stays_resident(self):
        # a grid near the point cap holds tens of MB: a sweep over n_base
        # must not keep the earlier ones alive
        sp = SpectralParams(0.75, 2.0, 2.3)
        build_loop(sp, 256)
        build_loop(sp, 64)
        assert contour_mod._tabled_grid.cache_info().currsize == 1

    def test_polish_grid_is_linspace(self):
        rng = np.random.default_rng(24)
        lo = rng.uniform(0.0, 1.0, 4000)
        width = 10.0 ** rng.uniform(-14.0, 0.0, 4000)
        for a, b in zip(lo.tolist(), (lo + width).tolist()):
            x = contour_mod._RAMP * ((b - a) / (contour_mod._POLISH_POINTS - 1)) + a
            x[-1] = b
            assert np.array_equal(x, np.linspace(a, b, contour_mod._POLISH_POINTS)), (a, b)

    def test_unresolved_phase_jump_is_refused(self):
        # a symbol of modulus 1 that jumps by pi at xi = 0.3 and back at
        # 0.7: the refinement stops at width 1e-12 on both jumps, whose
        # phase steps pi and -pi would sum to a winding of 0
        jump = SimpleNamespace(
            boundary=lambda xi: np.where(np.abs(xi - 0.5) < 0.2, -1.0 + 0j, 1.0 + 0j),
            unit_values=lambda theta: np.ones(theta.shape, dtype=complex))
        loop = contour_mod._loop(jump, 64)
        seg_index, t, values = loop.arrays()
        assert len(loop.unresolved) == 2 and loop.min_modulus == 1.0
        for i in loop.unresolved:
            assert seg_index[i] == seg_index[i + 1] == 0
            assert 0.0 < t[i + 1] - t[i] <= 1e-12
            assert values[i] == -values[i + 1]
        with pytest.raises(ResolutionError, match="turn the phase by pi/2 or more"):
            winding_number(loop)
