"""Golden outputs of the command line: what `whml` prints for a fixed set of
commands, regenerated in process through `cli_main`.

Each golden file lists its commands in order; every command is written as a
`$ whml ...` line followed by the bytes it printed on stdout.  A `contour`
command writes a file whose path would appear in the printed line, so its
entry holds the sha256 of the written file's bytes instead.

Regenerate the files (only when a change of printed values is intended and
reported) with

    PYTHONPATH=src python tests/golden/make_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import pathlib
import sys
import tempfile

import numpy as np

from whml.cli import cli_main

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent

# the triples of the README's command-line examples
README_TRIPLES = ((0.75, 2.0, 2.3), (0.4, 2.0, 1.4), (0.75, 2.0, 2.2), (0.25, 4.0, 0.7))
SEED = 2017
N_SEEDED = 40


def seeded_triples() -> list:
    """N_SEEDED admissible triples: alpha in (0.02, 0.98), p log-uniform in
    (1.05, 20), s uniform in (1/p, 2 + 1/p), kept 1e-3 away from the
    smoothness boundaries; the low window needs alpha < 1/2."""
    rng = np.random.default_rng(SEED)
    out = []
    while len(out) < N_SEEDED:
        a = float(rng.uniform(0.02, 0.98))
        p = float(math.exp(rng.uniform(math.log(1.05), math.log(20.0))))
        s = float(rng.uniform(1.0 / p, 2.0 + 1.0 / p))
        edges = (1.0 / p, 1.0 + 1.0 / p, 2.0 + 1.0 / p)
        if min(abs(s - e) for e in edges) < 1e-3:
            continue
        if s < 1.0 + 1.0 / p and a >= 0.5:
            continue
        out.append((a, p, s))
    return out


def _triple_args(a: float, p: float, s: float) -> list:
    return ["--alpha", repr(a), "--p", repr(p), "--s", repr(s)]


def _stdout_of(argv: list) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"whml {' '.join(argv)} exited {code}")
    return buf.getvalue()


def _contour_sha256(argv: list) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "loop"
        _stdout_of(argv + ["--out", str(out)])
        return f"sha256 {hashlib.sha256(out.read_bytes()).hexdigest()}\n"


def commands() -> dict:
    """Golden file name -> the commands whose output it holds, in order."""
    classify = [["classify", *_triple_args(*t), "--mode", "both", "--json"]
                for t in README_TRIPLES + tuple(seeded_triples())]
    return {
        "verify_all.txt": [["verify", "--suite", "all", "--json"]],
        "classify_both.txt": classify,
        "alphac_grid50.txt": [["alphac", "--grid", "50"]],
        "index.txt": [["index", *_triple_args(*t)] for t in README_TRIPLES],
        "contour_sha256.txt": [["contour", *_triple_args(*t), "--format", fmt]
                               for t in README_TRIPLES for fmt in ("csv", "svg")],
    }


def render(argvs: list) -> str:
    """The golden text of a list of commands."""
    parts = []
    for argv in argvs:
        parts.append("$ whml " + " ".join(argv) + "\n")
        parts.append(_contour_sha256(argv) if argv[0] == "contour" else _stdout_of(argv))
    return "".join(parts)


def main() -> int:
    for name, argvs in commands().items():
        (GOLDEN_DIR / name).write_text(render(argvs), encoding="utf-8")
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
