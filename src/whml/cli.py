"""Command-line surface: classification, critical roots, loop exports and
the verification suites.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 I/O failure, 4 numerical failure (a quadrature, a panel rule's error
estimate or a loop refinement missed its tolerance, or a loop passed too
close to the origin for a winding number); codes 2 to 4 print a one-line message to stderr.
A stdout closed by its reader (``whml verify | head -1``) is an I/O failure.

`alphac` bisects the critical root to float resolution; it takes no
tolerance option, and an alpha whose root float spacing cannot resolve is a
domain error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from .classify import classify
from .contour import build_loop, export_loop, min_modulus, winding_number
from .errors import AccuracyError, DomainError, NotFredholmError
from .symbols import SpectralParams
from .transcend import alpha_c
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _write_artifact(path: str, payload: bytes) -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise _IoFailure(str(exc)) from exc
    digest = hashlib.sha256(payload).hexdigest()
    print(f"wrote {path} sha256={digest}")


class _IoFailure(RuntimeError):
    pass


def _cmd_classify(args) -> int:
    report = classify(args.alpha, args.p, args.s, mode=args.mode)
    print(report.to_json() if args.json else report.to_text())
    return EXIT_OK


def _cmd_alphac(args) -> int:
    if args.grid is not None:
        if args.grid < 1:
            raise DomainError(f"--grid must be at least 1, got {args.grid}")
        alphas = np.linspace(0.0, 1.0, args.grid + 2)[1:-1]
        lines = ["alpha,alpha_c"]
        lines += [f"{a:.17g},{alpha_c(float(a)):.17g}" for a in alphas]
        payload = ("\n".join(lines) + "\n").encode("utf-8")
        if args.csv:
            _write_artifact(args.csv, payload)
        else:
            sys.stdout.write(payload.decode("utf-8"))
        return EXIT_OK
    value = alpha_c(args.alpha)
    if args.csv:
        _write_artifact(args.csv, f"alpha,alpha_c\n{args.alpha:.17g},{value:.17g}\n".encode())
    else:
        print(f"{value:.12g}")
    return EXIT_OK


def _cmd_contour(args) -> int:
    sp = SpectralParams(args.alpha, args.p, args.s)
    loop = build_loop(sp, args.points)
    _write_artifact(args.out, export_loop(loop, args.format))
    return EXIT_OK


def _cmd_index(args) -> int:
    sp = SpectralParams(args.alpha, args.p, args.s)
    loop = build_loop(sp, args.points)
    try:
        w = winding_number(loop)
    except NotFredholmError:
        print(f"NOT_FREDHOLM min_modulus={min_modulus(loop):.6e}")
        return EXIT_OK
    print(f"winding {w} index {-w}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = {name: run_suite(name, args.density) for name in names}

    all_passed = True
    if args.json:
        payload = {
            name: [rep.to_json_dict() for rep in results[name]]
            for name in sorted(results)
        }
        print(json.dumps(payload, indent=2))
        all_passed = all(rep.passed for reps in results.values() for rep in reps)
    else:
        for name in sorted(results):
            print(f"== suite {name}")
            for rep in results[name]:
                print(rep.to_text())
                print()
                all_passed &= rep.passed
    return EXIT_OK if all_passed else EXIT_VERIFY_FAIL


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whml",
        description="Half-line symbol laboratory: classification, critical "
                    "roots, symbol loops and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="classify a parameter triple")
    c.add_argument("--alpha", type=float, required=True)
    c.add_argument("--p", type=float, required=True)
    c.add_argument("--s", type=float, required=True)
    c.add_argument("--mode", choices=("theorem", "numeric", "both"), default="theorem")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_classify)

    a = sub.add_parser("alphac", help="critical smoothness offset")
    group = a.add_mutually_exclusive_group(required=True)
    group.add_argument("--alpha", type=float)
    group.add_argument("--grid", type=int)
    a.add_argument("--csv", type=str, default=None)
    a.set_defaults(func=_cmd_alphac)

    k = sub.add_parser("contour", help="export the symbol loop")
    k.add_argument("--alpha", type=float, required=True)
    k.add_argument("--p", type=float, required=True)
    k.add_argument("--s", type=float, required=True)
    k.add_argument("--out", type=str, required=True)
    k.add_argument("--format", choices=("csv", "svg"), default="csv")
    k.add_argument("--points", type=int, default=256)
    k.set_defaults(func=_cmd_contour)

    i = sub.add_parser(
        "index",
        help="loop winding number and the index of the symbol's operator "
             "on the full half-line space (classify reports the "
             "boundary-conditioned operator's index)",
    )
    i.add_argument("--alpha", type=float, required=True)
    i.add_argument("--p", type=float, required=True)
    i.add_argument("--s", type=float, required=True)
    i.add_argument("--points", type=int, default=256)
    i.set_defaults(func=_cmd_index)

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("--suite", choices=tuple(SUITES) + ("all",), default="all")
    v.add_argument("--density", type=int, default=20)
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=_cmd_verify)

    return parser


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (AccuracyError, NotFredholmError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _IoFailure as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BrokenPipeError as exc:
        # the reader of stdout has gone; what is still buffered goes to
        # os.devnull, so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"i/o error: stdout closed: {exc}", file=sys.stderr)
        return EXIT_IO


def script_entry() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    script_entry()
