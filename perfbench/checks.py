"""Correctness of one round's outputs, judged against oracle.py and against
properties the method must have.

check(workload, inputs, outputs) returns (failed, errors): `failed` counts
the operations of the round that failed in the known ways the workload
places on purpose (near-critical classify triples, edge-alpha alpha_c
calls); `errors` lists every other failure or wrong output.  A placed
operation that succeeds is checked like any other.
"""

from __future__ import annotations

import json

import numpy as np

import oracle


def _close(got, want, tol) -> bool:
    return got is not None and abs(got - want) <= tol


def _verdict_errors(report: dict, a: float, p: float, s: float) -> list:
    """Differences between a classify report (mode both) and the theorem."""
    where = f"classify({a!r}, {p!r}, {s!r})"
    want = oracle.theorem_verdict(a, p, s)
    errs = []
    if "consistency=agree" not in report.get("notes", ""):
        errs.append(f"{where}: theorem and numeric routes disagree")
    if report["regime"] != want["regime"] or report["bounded"] is not True:
        errs.append(f"{where}: regime {report['regime']} bounded {report['bounded']}")
    if want["regime"] == "HIGH":
        if not _close(report["alpha_c"], oracle.alpha_c(a), oracle.ALPHA_C_TOL):
            errs.append(f"{where}: alpha_c {report['alpha_c']} vs {oracle.alpha_c(a)}")
        if not _close(report["critical_s"], oracle.critical_s(a, p), oracle.ALPHA_C_TOL):
            errs.append(f"{where}: critical_s {report['critical_s']}")
    if report["fredholm"] is False and want["regime"] == "HIGH" \
            and abs(s - oracle.critical_s(a, p)) < oracle.CRITICAL_BAND:
        return errs  # a refusal inside the documented resolution band
    for key, value in want.items():
        if key != "regime" and report[key] != value:
            errs.append(f"{where}: {key} {report[key]!r}, theorem says {value!r}")
    return errs


def _failed(output) -> bool:
    return isinstance(output, dict) and ("error" in output
                                         or "consistency=disagree" in output.get("notes", ""))


def _loop_classify(inputs, outputs):
    triples, near = inputs["triples"], inputs["near_critical"]
    reports = outputs[:len(triples) + len(near)]
    windings = outputs[len(triples) + len(near):]
    failed, errs = 0, []
    for i, ((a, p, s), report) in enumerate(zip(triples + near, reports)):
        if _failed(report):
            if i < len(triples):
                errs.append(f"seeded triple {(a, p, s)} failed: {report}")
            else:
                failed += 1
            continue
        errs += _verdict_errors(report, a, p, s)
    for n, w in zip(inputs["validation_orders"], windings):
        if w != -n:
            errs.append(f"validation loop of order {n} winds {w}, expected {-n}")
    return failed, errs


def _error_records(out) -> list:
    """Every {"error": ...} output inside nested lists and dicts."""
    if isinstance(out, dict):
        if "error" in out:
            return [out["error"]]
        out = list(out.values())
    if isinstance(out, list):
        return [err for item in out for err in _error_records(item)]
    return []


def _halfline_ops(inputs, out):
    errs = _error_records(out)
    if errs:
        return 0, errs
    length, n = inputs["narrow_grid"]
    xs = (length / (n - 1)) * np.arange(n)[1:-1]
    gap = float(np.max(np.abs(np.asarray(out["rl"]) - oracle.rl_x2_exp(xs, inputs["rl_order"]))))
    if not gap <= oracle.RL_TOL:
        errs.append(f"rl_integral differs from the 1F1 closed form by {gap:.3e}")
    lhs, rhs = out["semigroup"]
    if not abs(lhs - rhs) <= oracle.SEMIGROUP_TOL:
        errs.append(f"semigroup residual {abs(lhs - rhs):.3e}")
    for (a, x), (singular, fourier) in zip(inputs["probes"], out["probes"]):
        if not abs(singular - fourier) <= oracle.DUAL_ROUTE_TOL:
            errs.append(f"apply_singular/apply_fourier at alpha={a} x={x}: "
                        f"{singular} vs {fourier}")
    energy = out["energy"]
    if not energy["form"] >= energy["norm2"]:
        errs.append(f"energy {energy['form']} below the squared norm {energy['norm2']}")
    if not abs(energy["form"] - energy["inner_product"]) <= oracle.FORM_TOL:
        errs.append(f"energy {energy['form']} vs <Au,u> {energy['inner_product']}")
    for (x, g), value in zip(inputs["caputo"], out["caputo"]):
        want = oracle.caputo_x2_exp(x, g)
        if not abs(value - want) <= oracle.CAPUTO_TOL:
            errs.append(f"caputo_derivative at x={x} gamma={g}: {value} vs {want}")
    for (x, a), residual in zip(inputs["mellin"], out["mellin"]):
        if not residual <= oracle.MELLIN_TOL:
            errs.append(f"mellin_difference_residual at x={x} alpha={a}: {residual:.3e}")
    return 0, errs


def _alpha_c_errors(a, value) -> list:
    want = oracle.alpha_c(a)
    if isinstance(value, float) and abs(value - want) <= oracle.ALPHA_C_TOL and 0.0 < value <= a:
        return []
    return [f"alpha_c({a!r}) = {value}, expected {want!r}"]


def _transcend_scan(inputs, out):
    errs = []
    d = inputs["density"]
    *scans, low, high = out["reports"]
    for region, rep in zip(inputs["regions"], scans):
        if "error" in rep or not (rep["pass"] and rep["min_margin"] > 0.0):
            errs.append(f"inequality_scan {region}: {rep}")
    if "error" in low or not (low["pass"] and low["min_margin"] > 1e-3):
        errs.append(f"LOW certificate: {low}")
    if "error" in high or not high["pass"]:
        errs.append(f"HIGH certificate: {high}")
    else:
        a, tau, xi = high["argmin"]
        if abs(tau - 1.0 - oracle.alpha_c(a)) > 1.0 / d or xi > 10.0 / d:
            errs.append(f"HIGH certificate minimum {high['argmin']} is not at "
                        f"(tau, xi) = (1 + alpha_c, 0)")
    if isinstance(out["roots"], dict):
        errs.append(f"alpha_c grid: {out['roots']['error']}")
    else:
        for a, value in zip(inputs["alphas"], out["roots"]):
            errs += _alpha_c_errors(a, value)
    failed = 0
    for a, value in zip(inputs["edge_alphas"], out["edges"]):
        if isinstance(value, dict):
            failed += 1
        else:
            errs += _alpha_c_errors(a, value)
    return failed, errs


def _cli_verify(inputs, records):
    errs = []
    for rec in records:
        if "error" in rec:
            errs.append(rec["error"])
            continue
        cmd, text = rec["cmd"], rec["stdout"]
        if rec["code"] != 0:
            errs.append(f"whml {cmd} exited {rec['code']}: {rec['stderr']}")
            continue
        if cmd == "verify":
            failing = [r["region"] for reps in json.loads(text).values()
                       for r in reps if not r["pass"]]
            if failing:
                errs.append(f"verify reports failing: {failing}")
        elif cmd == "classify":
            errs += _verdict_errors(json.loads(text), *inputs["classify"])
        elif cmd == "alphac":
            rows = [line.split(",") for line in text.strip().splitlines()[1:]]
            want = np.linspace(0.0, 1.0, inputs["alphac_grid"] + 2)[1:-1]
            if len(rows) != len(want) or any(float(a) != w for (a, _), w in zip(rows, want)):
                errs.append("alphac --grid printed another alpha grid")
            for a, value in rows:
                errs += _alpha_c_errors(float(a), float(value))
        elif cmd == "index":
            w = oracle.theorem_verdict(*inputs["index"])["winding"]
            if text.strip() != f"winding {w} index {-w}":
                errs.append(f"index printed {text.strip()!r}, expected winding {w}")
        elif cmd == "contour":
            printed = text.strip().rsplit("sha256=", 1)[-1]
            if printed != rec.get("file_sha256"):
                errs.append("contour's printed sha256 is not the hash of its file")
            if not rec.get("file_head", "").startswith("segment,t,re,im\n"):
                errs.append("contour file lacks the CSV header")
    return 0, errs


CHECKS = {
    "loop_classify": _loop_classify,
    "halfline_ops": _halfline_ops,
    "transcend_scan": _transcend_scan,
    "cli_verify": _cli_verify,
}


def check(workload: str, inputs: dict, outputs) -> tuple:
    return CHECKS[workload](inputs, outputs)
