"""Golden outputs of the command line: what `whml` prints for a fixed set of
commands, regenerated in process through `cli_main`; and `loops.txt`, a
digest of every symbol loop of a fixed set of triples and of the validation
loops.

Each command golden file lists its commands in order; every command is
written as a `$ whml ...` line followed by the bytes it printed on stdout.
A `contour` command writes a file whose path would appear in the printed
line, so its entry holds the sha256 of the written file's bytes instead.
`loops.txt` has one line per (triple, n_base) and one per n_base for the
validation orders 1 to n_base (see loop_digest).

Regenerate the files (only when a change of printed values is intended and
reported) with

    PYTHONPATH=src python tests/golden/make_golden.py

and list what a change moves, old -> new, without writing anything (for
`loops.txt`, the fields of each loop that moved, a numeric one with its
relative change, and a min also as a multiple of 16 u S, u = 2^-52 and S
the loop's rounding scale at its discrete argmin), with

    PYTHONPATH=src python tests/golden/make_golden.py --diff
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import math
import pathlib
import re
import sys
import tempfile

import numpy as np

from whml.cli import cli_main
from whml.contour import build_loop, build_validation_loop, winding_number
from whml.errors import DomainError, NotFredholmError, ResolutionError
from whml.symbols import SpectralParams, c1p_inf, c2p_inf, gamma1_mellin_term
from whml.transcend import alpha_c

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
                               for t in README_TRIPLES for fmt in ("csv", "svg")]
                              + [["contour", *_triple_args(*t), "--points", str(n),
                                  "--format", "csv"]
                                 for n in (64, 1024) for t in README_TRIPLES],
    }


def render(argvs: list) -> str:
    """The golden text of a list of commands."""
    parts = []
    for argv in argvs:
        parts.append("$ whml " + " ".join(argv) + "\n")
        parts.append(_contour_sha256(argv) if argv[0] == "contour" else _stdout_of(argv))
    return "".join(parts)


LOOP_N_BASES = (64, 256, 1024)
N_RANDOM_LOOPS = 300


def loop_triples() -> list:
    """The triples of the loop digest: the N_SEEDED golden ones;
    N_RANDOM_LOOPS seeded ones, alternately LOW and HIGH, with alpha
    log-uniform from 1e-4 to the window's bound, p log-uniform in (1.05, 20)
    and s uniform in the window, 1e-3 away from its edges; and HIGH triples
    at p = 2 within 1e-5 and 1e-9 of the critical s_c = 3/2 + alpha_c."""
    rng = np.random.default_rng(SEED + 1)
    out = seeded_triples()
    for k in range(N_RANDOM_LOOPS):
        high = k % 2
        a = float(10.0 ** rng.uniform(-4.0, math.log10(0.5 + 0.5 * high)))
        p = float(math.exp(rng.uniform(math.log(1.05), math.log(20.0))))
        s = float(rng.uniform(high + 1.0 / p + 1e-3, high + 1.0 + 1.0 / p - 1e-3))
        out.append((a, p, s))
    for a in (0.2, 0.5, 0.9):
        s_c = 1.5 + alpha_c(a)
        out += [(a, 2.0, s_c + d) for d in (-1e-5, 1e-5, -1e-9, 1e-9)]
    return out


def _verdict(loop) -> str:
    """The loop's winding, or the class of the error that refuses it."""
    try:
        return str(winding_number(loop))
    except (NotFredholmError, ResolutionError) as exc:
        return type(exc).__name__


def _loop_fields(loops, winding: str) -> str:
    """The digest fields of one loop, or of a run of loops taken together:
    the smallest minimum, the point and unresolved counts summed, and one
    sha256 over the (segment, t) pairs and one over the values, in order."""
    grid, values = hashlib.sha256(), hashlib.sha256()
    for loop in loops:
        seg_index, t, v = loop.arrays()
        grid.update(seg_index.astype("<i8").tobytes() + t.astype("<f8").tobytes())
        values.update(v.astype("<c16").tobytes())
    return (f"winding={winding} min={min(loop.min_modulus for loop in loops):.17g} "
            f"points={sum(loop.arrays()[1].size for loop in loops)} "
            f"unresolved={sum(len(loop.unresolved) for loop in loops)} "
            f"grid={grid.hexdigest()} values={values.hexdigest()}")


def _triple_line(triple, n_base: int) -> str:
    label = " ".join(map(repr, triple)) + f" n_base={n_base}"
    try:
        loop = build_loop(SpectralParams(*triple), n_base)
    except (DomainError, ResolutionError) as exc:
        return f"{label} refused={type(exc).__name__}\n"
    return f"{label} {_loop_fields([loop], _verdict(loop))}\n"


def _validation_line(n_base: int) -> str:
    """The validation loops of orders 1 to n_base at one n_base as one line;
    its winding field is -n when every order winds -n, else the orders that
    do not, each with its verdict."""
    loops = [build_validation_loop(n, n_base) for n in range(1, n_base + 1)]
    wrong = [f"{n}:{v}" for n, v in enumerate(map(_verdict, loops), start=1) if v != str(-n)]
    return (f"validation orders=1..{n_base} n_base={n_base} "
            f"{_loop_fields(loops, ','.join(wrong) or '-n')}\n")


def loop_digest() -> str:
    """The text of loops.txt: one line per loop_triples() triple and n_base
    in LOOP_N_BASES, then one validation line per n_base."""
    triples = loop_triples()
    return "".join([_triple_line(t, n) for n in LOOP_N_BASES for t in triples]
                   + [_validation_line(n) for n in LOOP_N_BASES])


def goldens() -> dict:
    """Golden file name -> the function that renders its text."""
    out = {name: functools.partial(render, argvs) for name, argvs in commands().items()}
    out["loops.txt"] = loop_digest
    return out


def _label_and_fields(line: str):
    """A digest line split into its label (the triple or the validation
    orders, and n_base) and its fields, key -> value."""
    label, rest = re.split(r" (?=(?:winding|refused)=)", line, maxsplit=1)
    return label, dict(field.split("=", 1) for field in rest.split())


def moved_loop_fields(name: str, old: str, new: str, scale_of=None) -> list:
    """One line per loop of digest `name` whose fields moved, naming each
    moved field old -> new (see _moved_field); with scale_of, a function of
    a line's label such as label_rounding_scale, a moved min also gets its
    change as a multiple of 16 u S, S = scale_of(label).  A change in the
    number of lines, or of a line's label or field names, is reported
    whole."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        return [f"{name}: {len(old_lines)} lines -> {len(new_lines)} lines"]
    out = []
    for lineno, (was, now) in enumerate(zip(old_lines, new_lines), start=1):
        if was == now:
            continue
        (label, olds), (new_label, news) = _label_and_fields(was), _label_and_fields(now)
        if label != new_label or olds.keys() != news.keys():
            out.append(f"{name}:{lineno}: {was} -> {now}")
            continue
        moved = [k for k in olds if olds[k] != news[k]]
        scale = scale_of(label) if scale_of and "min" in moved else None
        out.append(f"{name}:{lineno} {label}: " + ", ".join(
            _moved_field(k, olds[k], news[k], scale) for k in moved))
    return out


def _moved_field(key: str, old: str, new: str, scale=None) -> str:
    """One moved digest field, old -> new: a hash by its first 12 hex
    digits, and a numeric field with its relative change when old is not 0;
    a min with a rounding scale S also with |new - old| / (16 u S)."""
    if key in ("grid", "values"):
        return f"{key} {old[:12]} -> {new[:12]}"
    text = f"{key} {old} -> {new}"
    notes = []
    if key in ("min", "points", "unresolved") and float(old) != 0.0:
        notes.append(f"{(float(new) - float(old)) / abs(float(old)):+.1e}")
    if key == "min" and scale is not None:
        notes.append(f"{abs(float(new) - float(old)) / (16.0 * 2.0 ** -52 * scale):.2g} x 16uS")
    return text + (f" ({', '.join(notes)})" if notes else "")


def rounding_scale(sp: SpectralParams, loop) -> float:
    """The rounding scale of a loop's minimum: S = |c1p| + |gamma1 c2p| of
    the public factors at its discrete argmin on the boundary segment, and
    1 at an argmin on a unit-modulus segment."""
    seg_index, t, values = loop.arrays()
    i = int(np.argmin(np.abs(values)))
    if seg_index[i] != 0:
        return 1.0
    xi = math.tan(math.pi * (float(t[i]) - 0.5))
    return abs(complex(c1p_inf(xi, sp))) + abs(complex(gamma1_mellin_term(xi, sp) * c2p_inf(xi, sp)))


def label_rounding_scale(label: str) -> float:
    """rounding_scale of the loop a loops.txt line labels; 1 for a
    validation line, whose values all have modulus 1."""
    if label.startswith("validation"):
        return 1.0
    *triple, n_base = label.split()
    sp = SpectralParams(*map(float, triple))
    return rounding_scale(sp, build_loop(sp, int(n_base.split("=")[1])))


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
    for name, text_of in goldens().items():
        text = text_of()
        if argv:
            old = (GOLDEN_DIR / name).read_text(encoding="utf-8")
            if name == "loops.txt":
                moved = moved_loop_fields(name, old, text, label_rounding_scale)
            else:
                moved = moved_values(name, old, text)
            for line in moved:
                print(line)
        else:
            (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
            print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
