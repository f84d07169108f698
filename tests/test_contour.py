import cmath
import csv
import io
import math
import xml.etree.ElementTree as ET

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
from whml.errors import DomainError, NotFredholmError
from whml.symbols import SpectralParams, wh_c1

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

    def test_base_counts_over_the_point_cap(self, monkeypatch):
        # refused before any evaluation: 3 * 340000 + 3 * 42500 base points
        # already exceed the 10^6 cap
        def no_evaluation(*args):
            raise AssertionError("segment evaluated before the point cap check")

        monkeypatch.setattr(contour_mod, "eval_segment", no_evaluation)
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


class TestWinding:
    def test_validation_symbols(self):
        for n in range(1, 5):
            loop = build_validation_loop(n, 256)
            assert winding_number(loop) == -n

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

    def test_unknown_format(self):
        loop = build_loop(SP_LOW, 64)
        with pytest.raises(DomainError):
            export_loop(loop, "png")


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


def _sequential_refine(f, n):
    """Midpoint refinement one interval at a time, splitting an interval and
    re-checking its left half before moving on: the reference for the
    batched refinement of build_loop."""
    ts = list(np.linspace(0.0, 1.0, n))
    vals = [complex(f(t)) for t in ts]
    i = 0
    while i < len(ts) - 1:
        v0, v1 = vals[i], vals[i + 1]
        dphi = abs(cmath.phase(v1 / v0)) if v0 != 0 and v1 != 0 else math.pi
        if dphi >= math.pi / 2.0 and ts[i + 1] - ts[i] > 1e-12:
            tm = 0.5 * (ts[i] + ts[i + 1])
            ts.insert(i + 1, tm)
            vals.insert(i + 1, complex(f(tm)))
        else:
            i += 1
    return np.array(ts), np.array(vals)


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

    def test_batched_refinement_matches_sequential(self):
        # the near-critical triple needs midpoint insertions on G1
        for triple, n_base in (((0.75, 2.0, 2.226), 256), ((0.3, 2.0, 1.2), 64)):
            loop = build_loop(SpectralParams(*triple), n_base)
            seg_index, t, values = loop.arrays()
            for k, seg in enumerate(SEGMENT_ORDER):
                n = n_base if seg in (Segment.G1, Segment.G3P, Segment.G3M) else max(2, n_base // 8)
                ref_t, ref_v = _sequential_refine(loop.segment_eval[seg], n)
                mine = seg_index == k
                assert np.array_equal(t[mine], ref_t)
                assert np.max(np.abs(values[mine] - ref_v)) <= 1e-13
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
        import whml.contour as contour_mod
        loop = build_loop(SpectralParams(0.75, 2.0, 2.2), 128)
        calls = []
        original = contour_mod.eval_segment

        def counting(seg, t, sp):
            calls.append(seg)
            return original(seg, t, sp)

        monkeypatch.setattr(contour_mod, "eval_segment", counting)
        first = min_modulus(loop)
        assert calls
        calls.clear()
        assert min_modulus(loop) == first
        assert winding_number(loop) == -1
        assert calls == []

    def test_batched_polish_matches_sequential_golden_section(self):
        # one new point per step, as a plain golden-section search does
        def sequential(f, a, b):
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

        for triple in README_TRIPLES + ((0.75, 2.0, 2.226),):
            loop = build_loop(SpectralParams(*triple), 128)
            seg_index, t, values = loop.arrays()
            i = int(np.argmin(np.abs(values)))
            f = loop.segment_eval[SEGMENT_ORDER[seg_index[i]]]
            ref = min(float(abs(values[i])), sequential(f, t[i - 1], t[i + 1]))
            assert min_modulus(loop) == pytest.approx(ref, rel=1e-13, abs=1e-16)
