import csv
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from whml.classify import classify
from whml.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, cli_main
from whml.contour import FREDHOLM_TOL, Segment, build_loop, eval_segment, export_loop, min_modulus
from whml.errors import DomainError, NotFredholmError, ResolutionError
from whml.symbols import SpectralParams
from whml.transcend import alpha_c, critical_s, inequality_scan, no_solution_certificate


class TestClassifyTheorem:
    def test_low_regime_invertible(self):
        rep = classify(0.3, 2.0, 1.0)
        assert rep.regime == "LOW"
        assert rep.bounded and rep.fredholm and rep.invertible
        assert rep.winding == 0 and rep.index == 0
        assert rep.kernel_trivial

    def test_high_above_critical(self):
        rep = classify(0.75, 2.0, 2.3)
        assert rep.regime == "HIGH"
        assert rep.fredholm and rep.kernel_trivial
        assert rep.index == -1 and rep.winding == 0
        assert rep.invertible is False
        assert rep.alpha_c == pytest.approx(0.726, abs=2e-3)

    def test_high_below_critical(self):
        rep = classify(0.75, 2.0, 2.1)
        assert rep.invertible and rep.index == 0 and rep.winding == -1

    def test_near_critical_not_fredholm(self):
        # the symbol modulus at xi = 0 is about 6.6e-5 here, within FREDHOLM_TOL
        rep = classify(0.75, 2.0, critical_s(0.75, 2.0) - 2e-5)
        assert rep.regime == "HIGH"
        assert rep.fredholm is False
        assert rep.winding is None and rep.index is None
        assert rep.critical_s == pytest.approx(2.226, abs=2e-3)

    @pytest.mark.parametrize("mode", ["theorem", "numeric", "both"])
    def test_just_below_critical_is_fredholm(self, mode):
        # s_c - 2.226 is about 5.2e-5, where the modulus at xi = 0 is about 1.7e-4
        rep = classify(0.75, 2.0, 2.226, mode=mode)
        assert rep.fredholm is True and rep.index == 0 and rep.winding == -1
        assert "disagree" not in rep.notes

    def test_exact_critical_not_fredholm(self):
        crit = 1.0 + 0.5 + alpha_c(0.75)
        rep = classify(0.75, 2.0, crit)
        assert rep.fredholm is False

    def test_boundaries_inadmissible(self):
        for s in (0.5, 1.5, 2.5):
            assert classify(0.3, 2.0, s).regime == "INADMISSIBLE"
        assert classify(0.3, 2.0, 3.7).regime == "INADMISSIBLE"

    def test_low_window_large_alpha_inadmissible(self):
        rep = classify(0.75, 2.0, 1.2)
        assert rep.regime == "INADMISSIBLE"

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            classify(1.5, 2.0, 1.0)
        with pytest.raises(DomainError):
            classify(0.3, 0.5, 1.0)

    def test_deterministic_json(self):
        a = classify(0.3, 2.0, 1.0, mode="both").to_json()
        b = classify(0.3, 2.0, 1.0, mode="both").to_json()
        assert a == b


class TestClassifyNumeric:
    def test_numeric_leaves_kernel_unset(self):
        rep = classify(0.75, 2.0, 2.2, mode="numeric")
        assert rep.fredholm and rep.winding == -1 and rep.index == 0
        assert rep.kernel_trivial is None and rep.invertible is None

    def test_theorem_numeric_agreement_sample(self):
        rng = np.random.default_rng(42)
        agreements = 0
        for _ in range(200):
            if rng.uniform() < 0.5:
                a = float(rng.uniform(0.05, 0.45))
                p = float(rng.uniform(1.2, 5.0))
                tau = float(rng.uniform(0.05, 0.95))
            else:
                a = float(rng.uniform(0.05, 0.95))
                p = float(rng.uniform(1.2, 5.0))
                tau = float(rng.uniform(1.05, 1.95))
            s = tau + 1.0 / p
            theorem = classify(a, p, s, mode="theorem")
            numeric = classify(a, p, s, mode="numeric")
            assert theorem.fredholm == numeric.fredholm
            assert theorem.index == numeric.index
            agreements += 1
        assert agreements == 200

    def test_routes_agree_at_the_low_window_edge(self):
        # the symbol touches zero at xi = 0 as s -> 1/p, linearly in s - 1/p;
        # both routes read that modulus against the same tolerance
        rng = np.random.default_rng(15)
        not_fredholm = 0
        for _ in range(600):
            p = float(np.exp(rng.uniform(np.log(1.2), np.log(8.0))))
            a = float(rng.uniform(0.02, 0.48))
            s = 1.0 / p + float(np.exp(rng.uniform(np.log(1e-8), np.log(1e-1))))
            rep = classify(a, p, s, mode="both")
            assert "consistency=disagree" not in rep.notes, (a, p, s, rep.notes)
            if rep.fredholm is False:
                assert "(s = 1/p): not Fredholm" in rep.notes
                not_fredholm += 1
        assert not_fredholm > 100

    def test_both_mode_flags_consistency(self):
        rep = classify(0.3, 2.0, 1.0, mode="both")
        assert "consistency=agree" in rep.notes

    def test_routes_agree_near_critical(self):
        rng = np.random.default_rng(2017)
        for _ in range(300):
            a = float(rng.uniform(1e-3, 1.0 - 1e-3))
            p = float(np.exp(rng.uniform(np.log(1.01), np.log(50.0))))
            gap = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-7.0, -2.0))
            rep = classify(a, p, critical_s(a, p) + gap, mode="both")
            assert "consistency=agree" in rep.notes, (a, p, gap, rep.notes)

    # the benchmark's near-critical triples and their mirrors across s_c:
    # the loop's minimum modulus lies just above the Fredholm tolerance
    @pytest.mark.parametrize("a,p,gap", [(0.2, 2.0, 8e-5), (0.5, 2.0, -8e-5), (0.9, 2.0, 8e-5),
                                         (0.2, 2.0, -8e-5), (0.5, 2.0, 8e-5), (0.9, 2.0, -8e-5)])
    def test_near_critical_verdict_follows_the_side(self, a, p, gap):
        s = critical_s(a, p) + gap
        assert FREDHOLM_TOL < min_modulus(build_loop(SpectralParams(a, p, s))) < 3 * FREDHOLM_TOL
        rep = classify(a, p, s, mode="both")
        assert "consistency=agree" in rep.notes
        assert rep.fredholm is True
        assert rep.index == (0 if gap < 0 else -1)

    def test_touching_point_modulus_is_the_loop_minimum(self):
        rng = np.random.default_rng(5)
        for _ in range(12):
            a = float(rng.uniform(0.05, 0.97))
            p = float(np.exp(rng.uniform(np.log(1.2), np.log(8.0))))
            gap = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, -3.0))
            sp = SpectralParams(a, p, critical_s(a, p) + gap)
            touch = abs(eval_segment(Segment.G1, 0.5, sp))
            assert min_modulus(build_loop(sp)) == pytest.approx(touch, rel=1e-9)


_NAMED = {
    "inequality_scan": inequality_scan,
    "no_solution_certificate": no_solution_certificate,
    "classify": lambda name: classify(0.3, 2.0, 1.2, mode=name),
    "export_loop": lambda name: export_loop(build_loop(SpectralParams(0.3, 2.0, 1.2), 64), name),
}


@pytest.mark.parametrize("call, name", [(call, name) for call in _NAMED for name in (None, 3)]
                         + [("classify", "bogus")])
def test_a_name_that_is_not_known_is_refused(call, name):
    # a name that is not a string is unknown, as an unknown string is
    with pytest.raises(DomainError, match=f"unknown .*{name!r}"):
        _NAMED[call](name)


class TestCli:
    def test_alphac_value(self, capsys):
        assert cli_main(["alphac", "--alpha", "0.5"]) == EXIT_OK
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(0.4303, abs=1e-3)

    def test_alphac_grid_csv(self, tmp_path, capsys):
        path = tmp_path / "table.csv"
        assert cli_main(["alphac", "--grid", "5", "--csv", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert str(path) in out and "sha256=" in out
        digest = out.strip().split("sha256=")[1]
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["alpha", "alpha_c"]
        assert len(rows) == 6
        for alpha_text, ac_text in rows[1:]:
            assert 0.0 < float(ac_text) < float(alpha_text)

    def test_index_zero(self, capsys):
        assert cli_main(["index", "--alpha", "0.25", "--p", "4", "--s", "0.7"]) == EXIT_OK
        assert "winding 0 index 0" in capsys.readouterr().out

    def test_index_not_fredholm(self, capsys):
        crit = 1.0 + 0.5 + alpha_c(0.75)
        assert cli_main(["index", "--alpha", "0.75", "--p", "2",
                         "--s", f"{crit:.15f}"]) == EXIT_OK
        assert "NOT_FREDHOLM" in capsys.readouterr().out

    def test_classify_json_modes_agree(self, capsys):
        assert cli_main(["classify", "--alpha", "0.3", "--p", "2", "--s", "1.0",
                         "--mode", "both", "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["regime"] == "LOW"
        assert "consistency=agree" in payload["notes"]
        assert list(payload) == ["regime", "bounded", "fredholm", "winding",
                                 "index", "kernel_trivial", "invertible",
                                 "alpha_c", "critical_s", "notes"]

    def test_contour_export(self, tmp_path, capsys):
        path = tmp_path / "loop.csv"
        assert cli_main(["contour", "--alpha", "0.4", "--p", "2", "--s", "1.4",
                         "--out", str(path), "--points", "64"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "sha256=" in out
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["segment", "t", "re", "im"]
        for row in rows[1:]:
            z = complex(float(row[2]), float(row[3]))
            assert abs(z - 1.0) < 0.4

    def test_contour_io_failure(self):
        assert cli_main(["contour", "--alpha", "0.4", "--p", "2", "--s", "1.4",
                         "--out", "/nonexistent-dir/loop.csv"]) == EXIT_IO

    def test_domain_error_exit(self, capsys):
        assert cli_main(["classify", "--alpha", "1.5", "--p", "2", "--s", "1.0"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_index_points_over_the_cap_is_usage_error(self, capsys, monkeypatch):
        import whml.contour as contour_mod
        from whml.symbols import LoopSymbol

        def no_evaluation(*args):
            raise AssertionError("loop evaluated before the point cap check")

        monkeypatch.setattr(contour_mod, "_loop_values", no_evaluation)
        for kernel in ("boundary_kernel", "unit_values"):
            monkeypatch.setattr(LoopSymbol, kernel, no_evaluation)
        assert cli_main(["index", "--alpha", "0.75", "--p", "2", "--s", "2.3",
                         "--points", "340000"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unknown_flag_exit(self, capsys):
        assert cli_main(["classify", "--bogus", "1"]) == EXIT_USAGE

    @pytest.mark.parametrize("alpha", ["1e-9", "0.99999999", "0.999999999999"])
    def test_alphac_unresolvable_root_is_usage_error(self, capsys, alpha):
        assert cli_main(["alphac", "--alpha", alpha]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines() == [
            f"error: alpha_c({float(alpha)!r}) is not resolvable at float precision"]

    def test_alphac_takes_no_tolerance(self, capsys):
        assert cli_main(["alphac", "--alpha", "0.5", "--tol", "1e-3"]) == EXIT_USAGE
        assert "--tol" in capsys.readouterr().err

    def test_negative_grid_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "whml.cli", "alphac", "--grid", "-3"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert cli_main(["alphac", "--grid", "0"]) == EXIT_USAGE

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_stdout_is_an_io_failure(self, unbuffered):
        # the read end closes before the child has imported anything, so its
        # first write (unbuffered) or the flush after the command (buffered)
        # meets a broken pipe; the exit flush then finds nothing to report
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.Popen(
            [sys.executable, "-m", "whml.cli", "alphac", "--alpha", "0.5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == EXIT_IO
        assert len(err.splitlines()) == 1, err
        assert err.startswith("i/o error: stdout closed: ")

    def test_import_leaves_scipy_signal_unloaded(self):
        # scipy.signal takes about 0.4 s to import, which every command would
        # pay; scipy.integrate and scipy.interpolate load at the first quad
        # call and the first spline
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, whml.cli; "
             "print(any(m in sys.modules for m in "
             "('scipy.signal', 'scipy.integrate', 'scipy.interpolate')))"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("exc", [ResolutionError("refinement budget"),
                                     NotFredholmError("loop hits the origin")])
    def test_numerical_failure_exit(self, capsys, monkeypatch, exc):
        import whml.cli as cli_mod

        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli_mod, "classify", failing)
        assert cli_main(["classify", "--alpha", "0.3", "--p", "2", "--s", "1.0"]) == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.strip().splitlines() == [f"numerical failure: {exc}"]

    def test_index_polishes_once(self, capsys, monkeypatch):
        from whml.contour import build_loop, min_modulus, winding_number
        from whml.symbols import LoopSymbol, SpectralParams
        calls = []

        def counting(kernel):
            def counted(self, *args):
                calls.append(kernel.__name__)
                return kernel(self, *args)
            return counted

        # the loop's kernels evaluate the base grid, the refinement and the
        # polish: one assembly makes some calls, and reading the minimum and
        # the winding make none
        for kernel in (LoopSymbol.boundary_kernel, LoopSymbol.unit_values):
            monkeypatch.setattr(LoopSymbol, kernel.__name__, counting(kernel))
        loop = build_loop(SpectralParams(0.75, 2.0, 2.2), 256)
        one_build = len(calls)
        assert one_build > 0
        min_modulus(loop)
        winding_number(loop)
        assert len(calls) == one_build
        calls.clear()
        assert cli_main(["index", "--alpha", "0.75", "--p", "2", "--s", "2.2"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "winding -1 index 1"
        assert len(calls) == one_build

    def test_verify_single_suite(self, capsys):
        assert cli_main(["verify", "--suite", "transcend", "--density", "20",
                         "--json"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert all(rep["pass"] for rep in payload["transcend"])

    def test_verify_text_output(self, capsys):
        assert cli_main(["verify", "--suite", "symbols"]) == EXIT_OK
        assert "suite symbols" in capsys.readouterr().out

    def test_verify_failure_exit(self, capsys, monkeypatch):
        from whml.reports import VerificationReport
        import whml.verify as verify_mod

        def failing_suite(density=20):
            return [VerificationReport.from_margin("forced", "unit test", -1.0, 0.0)]

        monkeypatch.setitem(verify_mod.SUITES, "symbols", failing_suite)
        assert cli_main(["verify", "--suite", "symbols"]) == EXIT_VERIFY_FAIL
        capsys.readouterr()

    def test_boundary_cancellation_fails_on_a_wrong_constant(self, capsys, monkeypatch):
        # the constant both routes are held to, off by 1e-5 relative
        import whml.verify as verify_mod
        original = verify_mod.frac_laplacian_constant
        monkeypatch.setattr(verify_mod, "frac_laplacian_constant",
                            lambda lam, k: original(lam, k) * (1.0 + 1e-5))
        row = {rep.name: rep for rep in verify_mod.suite_kernel()}["boundary_cancellation"]
        assert row.to_json_dict()["pass"] is False
        assert row.max_residual == pytest.approx(1e-5, rel=1e-2)
        assert cli_main(["verify", "--suite", "kernel", "--json"]) == EXIT_VERIFY_FAIL
        capsys.readouterr()

    @pytest.mark.parametrize("density", ["0", "-5"])
    def test_verify_density_below_one_is_usage_error(self, density):
        proc = subprocess.run(
            [sys.executable, "-m", "whml.cli", "verify", "--suite", "symbols",
             "--density", density],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == EXIT_USAGE
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("name, density, message", [
        ("bogus", 20, "unknown suite 'bogus'"),
        ("kernel", 25.5, "density must be an integer, got 25.5"),
        ("kernel", True, "density must be an integer, got True"),
        ("kernel", 0, "density must be at least 1, got 0"),
    ])
    def test_run_suite_refuses_bad_arguments(self, name, density, message):
        from whml.verify import run_suite
        with pytest.raises(DomainError, match=message):
            run_suite(name, density)

    def test_symbols_suite_floors_its_xi_grid(self, monkeypatch):
        import whml.verify as verify_mod

        xis = set()
        original = verify_mod.c1p_inf

        def recording(xi, sp):
            xis.update(np.atleast_1d(xi).tolist())
            return original(xi, sp)

        monkeypatch.setattr(verify_mod, "c1p_inf", recording)
        reports = {rep.name: rep for rep in verify_mod.suite_symbols(1)}
        assert len(xis) >= 5
        assert reports["loop_arc_invariant"].passed
