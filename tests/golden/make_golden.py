"""Golden outputs of the command line: what `whml` prints for a fixed set of
commands, regenerated in process through `cli_main`.

Each golden file lists its commands in order; every command is written as a
`$ whml ...` line followed by the bytes it printed on stdout.  A `contour`
command writes a file whose path would appear in the printed line, so its
entry holds the sha256 of the written file's bytes instead.

Regenerate the files (only when a change of printed values is intended and
reported) with

    PYTHONPATH=src python tests/golden/make_golden.py

and list what a change moves, old -> new, without writing anything, with

    PYTHONPATH=src python tests/golden/make_golden.py --diff
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import pathlib
import re
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


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_KEY = re.compile(r'^\s*"([^"]+)":')
_REGION = re.compile(r'"region": "([^"]+)"')


def moved_values(name: str, old: str, new: str) -> list:
    """One line per moved value of golden file `name`, old -> new: each
    numeric token that differs on a line whose text around the numbers is
    unchanged, labelled with its line, the command, the JSON region and
    key.  A line that differs otherwise, or a change in the number of
    lines, is reported whole."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return [f"{name}: {len(old_lines)} lines -> {len(new_lines)} lines"]
    out = []
    command = region = ""
    for lineno, (was, now) in enumerate(zip(old_lines, new_lines), start=1):
        if now.startswith("$ whml "):
            command, region = now[2:], ""
        found = _REGION.search(now)
        if found:
            region = found.group(1)
        if was == now:
            continue
        where = " ".join(part for part in (f"{name}:{lineno}", command, region) if part)
        key = _KEY.match(now)
        label = f"{where} {key.group(1)}" if key else where
        olds, news = _NUMBER.findall(was), _NUMBER.findall(now)
        if _NUMBER.sub("#", was) != _NUMBER.sub("#", now) or len(olds) != len(news):
            out.append(f"{label}: {was.strip()} -> {now.strip()}")
            continue
        out += [f"{label}: {a} -> {b}" for a, b in zip(olds, news) if a != b]
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv not in ([], ["--diff"]):
        print("usage: make_golden.py [--diff]", file=sys.stderr)
        return 2
    for name, argvs in commands().items():
        text = render(argvs)
        if argv:
            old = (GOLDEN_DIR / name).read_text(encoding="utf-8")
            for line in moved_values(name, old, text):
                print(line)
        else:
            (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
            print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
