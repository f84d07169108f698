"""One workload's timed rounds, run in a fresh process by run.py.

    python3 perfbench/worker.py --workload W --inputs FILE --seconds S
        [--trace 0|1] [--trace-file FILE] [--setup-only]

Prints one JSON object: the set-up time, the timing summary of the rounds,
peak memory, the outputs of the first round and whether every later round
reproduced them.  Correctness is judged by run.py.

A round is a fixed list of operations; rounds repeat until the time is
used up, so every run attempts whole rounds.  Every operation is timed in
every round, and the summary takes each operation at its median over the
run's rounds after the first, scaled to the reference host speed (see
Recorder and hostspeed.py); the CLI workload's calls are fresh processes,
so it takes each at its fastest round, not scaled.  The set-up time
covers importing whml and building the workload's inputs through the
program.  With --trace 1 the
first half of the time runs untraced rounds and the second half traced
ones (see tracer.py); the two summaries give the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from time import perf_counter

from tracer import Tracer, install, layer_metrics

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
CLI_TIMEOUT_S = 150
# reference samples that scale the set-up time (see hostspeed.py)
SETUP_REFERENCES = 5


def median_after_warm_up(times: list) -> float:
    """The median over the rounds after the first, which pays lazy set-up
    (the first round's time if it was the only one)."""
    return statistics.median(times[1:] or times)


class Recorder:
    """Time of every operation in every round, keyed by the operation's place
    in the round, with the work units an operation stands for and the number
    of operations of the latency metric it makes.

    The summary scales each time by `host` (see hostspeed.py) and takes
    each operation at `per_op` of its times, one per round: the inputs of a
    round never change, so what moves between repeats of one operation is
    the host.
    """

    def __init__(self, host, per_op):
        self.host = host
        self.per_op = per_op
        self.samples = defaultdict(list)
        self.units = {}
        self.latency = {}
        self.attempted = 0

    def call(self, key: str, fn, *args, units: int = 0, latency: int = 0, **kwargs):
        """fn(*args, **kwargs), timed under `key`; a library error becomes an
        {"error": ...} output, which the checks count or report.  `latency`
        is the number of operations of the latency metric the call makes."""
        self.host.maybe_sample()
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # every failing operation is an output
            result = {"error": f"{type(exc).__name__}: {exc}"}
        self.samples[key].append((start, perf_counter()))
        self.host.maybe_sample()
        self.attempted += 1
        if units:
            self.units[key] = units
        if latency:
            self.latency[key] = latency
        return result

    def typical(self) -> dict:
        """Each operation's time: per_op of its scaled times."""
        scale = self.host.scale
        return {key: self.per_op([(end - start) * scale(start, end) for start, end in samples])
                for key, samples in self.samples.items()}

    def summary(self) -> dict:
        typical = self.typical()
        return {
            "round_s": sum(typical.values()),
            "units": sum(self.units.values()),
            "unit_s": sum(typical[key] for key in self.units),
            "latencies": [typical[key] / n for key, n in self.latency.items()],
        }


def _as_dict(report):
    return report if isinstance(report, dict) else json.loads(report.to_json())


class LoopClassify:
    """classify(mode="both") over seeded triples and the fixed near-critical
    ones, then the winding of the validation loops."""

    def __init__(self, inputs):
        self.classify = importlib.import_module("whml.classify")
        self.contour = importlib.import_module("whml.contour")
        self.triples = [tuple(t) for t in inputs["triples"] + inputs["near_critical"]]
        self.orders = inputs["validation_orders"]

    def round(self, rec: Recorder) -> list:
        out = [_as_dict(rec.call(f"classify/{i}", self.classify.classify, a, p, s,
                                 mode="both", units=1, latency=1))
               for i, (a, p, s) in enumerate(self.triples)]
        contour = self.contour
        for n in self.orders:
            out.append(rec.call(f"validation/{n}",
                                lambda n=n: contour.winding_number(contour.build_validation_loop(n))))
        return out


class HalflineOps:
    """The half-line operator and fractional calculus on x^2 e^-x grids."""

    def __init__(self, inputs):
        import numpy as np  # imported here so that set-up time includes it

        self.np = np
        self.h = importlib.import_module("whml.halfline")
        gridfn = importlib.import_module("whml.gridfn")
        kernel = importlib.import_module("whml.kernel")
        self.GridFunction = gridfn.GridFunction

        def profile(x):
            return x * x * math.exp(-x)

        self.wide = self.GridFunction.from_function(profile, *inputs["wide_grid"])
        self.narrow = self.GridFunction.from_function(profile, *inputs["narrow_grid"])
        # the spline is built on first evaluation; a user pays that once
        self.wide(0.0)
        self.narrow(0.0)
        self.inp = inputs
        self.kernels = {a: kernel.KernelParams(a) for a in
                        {a for a, _ in inputs["probes"]} | {a for _, a in inputs["mellin"]}
                        | {inputs["form_alpha"]}}

    def _inner(self, rl: list):
        """I^gamma u on the narrow grid, from the rl values at its interior
        nodes (0 at x = 0, the last value repeated at x = L)."""
        return self.GridFunction(self.np.asarray([0.0] + rl + [rl[-1]]), self.narrow.h)

    def _energy(self, form: float, au) -> dict:
        """Q(u) beside <Au, u> and ||u||^2 on the wide grid."""
        u, dx = self.wide.samples, self.wide.h
        return {"form": form,
                "inner_product": float(self.np.trapezoid(au.samples * u, dx=dx)),
                "norm2": float(self.np.sum(self.np.abs(u) ** 2) * dx)}

    def round(self, rec: Recorder) -> dict:
        h, inp, narrow, wide = self.h, self.inp, self.narrow, self.wide
        g1, g2, x0 = inp["rl_order"], inp["semigroup_order"], inp["semigroup_x"]
        rl = [rec.call(f"rl/{i}", h.rl_integral, narrow, float(x), g1, units=1)
              for i, x in enumerate(narrow.xs[1:-1])]
        inner = rec.call("rl/inner", self._inner, rl)
        semigroup = [rec.call("rl/semigroup", h.rl_integral, inner, x0, g2),
                     rec.call("rl/direct", h.rl_integral, narrow, x0, g1 + g2)]

        fourier = {a: rec.call(f"fourier/{a}", h.apply_fourier, wide, self.kernels[a])
                   for a in dict.fromkeys(a for a, _ in inp["probes"])}
        probes = [[rec.call(f"probe/{i}", h.apply_singular, wide, x, self.kernels[a],
                            latency=1),
                   rec.call(f"probe_fourier/{i}", lambda a=a, x=x: fourier[a](x))]
                  for i, (a, x) in enumerate(inp["probes"])]

        k = self.kernels[inp["form_alpha"]]
        form = rec.call("form", h.quadratic_form, wide, k)
        au = rec.call("form_fourier", h.apply_fourier, wide, k)
        energy = rec.call("form_inner", self._energy, form, au)
        caputo = [rec.call(f"caputo/{i}", h.caputo_derivative, narrow, x, g)
                  for i, (x, g) in enumerate(inp["caputo"])]
        mellin = [rec.call(f"mellin/{i}", h.mellin_difference_residual, narrow, x,
                           self.kernels[a])
                  for i, (x, a) in enumerate(inp["mellin"])]
        return {"rl": rl, "semigroup": semigroup, "probes": probes, "energy": energy,
                "caputo": caputo, "mellin": mellin}


def scan_cells(region: str, density: int, n_alphas: int = 0) -> int:
    """Grid cells of one scan: density^3 over (alpha, tau, xi), twice the
    tau cells for TE3's two tau windows, and density^2 per alpha for the
    HIGH certificate."""
    if region == "HIGH":
        return n_alphas * density ** 2
    return (2 if region == "TE3" else 1) * density ** 3


class TranscendScan:
    """Inequality scans and certificates at a high density, then alpha_c on a
    seeded alpha grid and at the fixed edge alphas."""

    def __init__(self, inputs):
        self.t = importlib.import_module("whml.transcend")
        self.inp = inputs

    def round(self, rec: Recorder) -> dict:
        t, inp = self.t, self.inp
        d = inp["density"]
        cert_alphas = tuple(inp["cert_alphas"])
        scans = [(f"scan/{region}", t.inequality_scan, (region, d), {},
                  scan_cells(region, d)) for region in inp["regions"]]
        scans += [(f"cert/{regime}", t.no_solution_certificate, (regime, d),
                   {"alphas": cert_alphas}, scan_cells(regime, d, len(cert_alphas)))
                  for regime in ("LOW", "HIGH")]
        reports = [rec.call(key, fn, *args, units=cells, **kwargs)
                   for key, fn, args, kwargs, cells in scans]
        # one timed call for the whole grid: the mean of some 40 us roots
        # timed one by one spread more between runs than the grid's time
        alphas = inp["alphas"]
        roots = rec.call("alpha_c", lambda: [t.alpha_c(a) for a in alphas],
                         latency=len(alphas))
        edges = [rec.call(f"edge/{i}", t.alpha_c, a) for i, a in enumerate(inp["edge_alphas"])]
        return {"reports": [r if isinstance(r, dict) else r.to_json_dict() for r in reports],
                "roots": roots, "edges": edges}


class CliVerify:
    """`python -m whml.cli` subprocesses, one at a time."""

    def __init__(self, inputs, tmpdir: str):
        self.out_path = os.path.join(tmpdir, "loop.csv")

        def triple(key):
            a, p, s = inputs[key]
            return ["--alpha", repr(a), "--p", repr(p), "--s", repr(s)]

        self.calls = [
            ("verify", ["verify", "--suite", "all", "--json"]),
            ("classify", ["classify", *triple("classify"), "--mode", "both", "--json"]),
            ("alphac", ["alphac", "--grid", str(inputs["alphac_grid"])]),
            ("index", ["index", *triple("index")]),
            ("contour", ["contour", *triple("contour"), "--out", self.out_path]),
        ]

    def _run(self, name: str, argv: list) -> dict:
        proc = subprocess.run([sys.executable, "-m", "whml.cli", *argv],
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        record = {"cmd": name, "code": proc.returncode, "stdout": proc.stdout,
                  "stderr": proc.stderr[-2000:]}
        if name == "contour" and os.path.exists(self.out_path):
            with open(self.out_path, "rb") as fh:
                payload = fh.read()
            record["file_sha256"] = hashlib.sha256(payload).hexdigest()
            record["file_head"] = payload[:200].decode("utf-8", "replace")
        return record

    def round(self, rec: Recorder) -> list:
        return [rec.call(f"cli/{name}", self._run, name, argv, units=1,
                         latency=int(name == "verify"))
                for name, argv in self.calls]


def verify_in_process() -> dict:
    """`whml verify --suite all --json` through cli_main in this process."""
    cli = importlib.import_module("whml.cli")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.cli_main(["verify", "--suite", "all", "--json"])
    return {"cmd": "verify", "code": code, "stdout": buf.getvalue(), "stderr": ""}


def run_rounds(round_fn, seconds: float, rec: Recorder):
    """Whole rounds until `seconds` have passed; returns the first round's
    outputs, the number of rounds and whether every round gave the same
    outputs."""
    first = None
    identical = True
    rounds = 0
    begin = perf_counter()
    while True:
        outputs = round_fn(rec)
        rounds += 1
        if first is None:
            first = outputs
        elif outputs != first:
            identical = False
        if perf_counter() - begin >= seconds:
            return first, rounds, identical


def untraced_run(work, seconds: float, usage_of, host, per_op) -> dict:
    rec = Recorder(host, per_op)
    outputs, rounds, identical = run_rounds(work.round, seconds, rec)
    return {
        "outputs": outputs, "identical": identical, "attempted": rec.attempted,
        "rounds": rounds, **rec.summary(),
        "peak_rss_mb": resource.getrusage(usage_of).ru_maxrss / 1024.0,
    }


def import_cli_s(env=None) -> float:
    """Wall time of a fresh `python -c "import whml.cli"`."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import whml.cli"], env=env, check=True,
                   timeout=CLI_TIMEOUT_S)
    return perf_counter() - start


def traced_run(work, seconds: float, trace_path: str, host, per_op) -> dict:
    """Untraced rounds for half the time, then traced rounds.  For the CLI
    workload the traced round also runs `verify` in process, so the suites
    are seen by the tracer, and the untraced rounds run only that call.
    The overhead compares the operations both halves ran."""
    cli = isinstance(work, CliVerify)

    def in_process(rec):
        return [rec.call("verify_in_process", verify_in_process)]

    def traced_round(rec):
        return work.round(rec) + in_process(rec) if cli else work.round(rec)

    plain, traced = Recorder(host, per_op), Recorder(host, per_op)
    outputs_a, rounds_a, identical_a = run_rounds(in_process if cli else work.round,
                                                  seconds / 2.0, plain)
    tracer = Tracer()
    undo = install(tracer)
    try:
        outputs_b, rounds_b, identical_b = run_rounds(traced_round, seconds / 2.0, traced)
    finally:
        undo()
    tracer.write(trace_path)

    typical_a, typical_b = plain.typical(), traced.typical()
    overhead = sum(typical_b[k] for k in typical_a) / sum(typical_a.values()) - 1.0
    cli_times = {}
    if cli:
        cli_times = {name: typical_b[f"cli/{name}"] for name, _ in work.calls}
        cli_times["import"] = statistics.median(import_cli_s() for _ in range(3))
    same = (outputs_b[-1:] if cli else outputs_b) == outputs_a
    return {
        "outputs": outputs_b, "identical": identical_a and identical_b and same,
        "attempted": plain.attempted + traced.attempted,
        "rounds": rounds_b if cli else rounds_a + rounds_b,
        "layer_metrics": layer_metrics(tracer, rounds_b, cli_times, 100.0 * overhead),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)

    tmpdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        start = perf_counter()
        importlib.import_module("whml")
        if args.workload == "loop_classify":
            work = LoopClassify(inputs)
        elif args.workload == "halfline_ops":
            work = HalflineOps(inputs)
        elif args.workload == "transcend_scan":
            work = TranscendScan(inputs)
        else:
            work = CliVerify(inputs, tmpdir)
        end = perf_counter()
        from hostspeed import HostSpeed, Unscaled  # after set-up, which it would shorten

        cli = isinstance(work, CliVerify)
        if cli:
            # a CLI call is a fresh process: the reference, timed in this
            # process, does not follow its speed, and it has no warm-up to
            # leave out; other tenants only ever add to its time, so its
            # fastest round moves least from run to run
            host, per_op = Unscaled(), min
        else:
            host, per_op = HostSpeed(), median_after_warm_up
            for _ in range(SETUP_REFERENCES):
                host.sample()
        setup_s = (end - start) * host.scale(start, end)
        if args.setup_only:
            result = {}
        elif args.trace:
            result = traced_run(work, args.seconds, args.trace_file, host, per_op)
        else:
            usage_of = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
            result = untraced_run(work, args.seconds, usage_of, host, per_op)
        result["setup_s"] = setup_s
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
