"""The command line prints the committed golden bytes, and the symbol loops
hash to the committed digest (tests/golden/)."""

import pytest

from golden.make_golden import GOLDEN_DIR, goldens, moved_loop_fields, moved_values

GOLDEN = goldens()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name):
    want = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    got = GOLDEN[name]()
    if got == want:
        return
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for lineno, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            pytest.fail(f"{name} line {lineno} differs:\n  golden: {w}\n  now:    {g}")
    pytest.fail(f"{name} has {len(want_lines)} lines golden, {len(got_lines)} now")


def test_diff_lists_each_moved_value():
    old = ('$ whml verify --json\n{\n  "region": "r1",\n  "max_residual": 4.1e-06,\n'
           '  "argmin": [\n    0.75,\n    1.0\n  ],\n  "pass": true\n}\n')
    new = old.replace("4.1e-06", "1.3e-06").replace("0.75", "0.5").replace("true", "false")
    assert moved_values("f.txt", old, new) == [
        "f.txt:4 whml verify --json r1 max_residual: 4.1e-06 -> 1.3e-06",
        "f.txt:6 whml verify --json r1: 0.75 -> 0.5",
        'f.txt:9 whml verify --json r1 pass: "pass": true -> "pass": false',
    ]
    assert moved_values("f.txt", old, old) == []
    assert moved_values("f.txt", old, old + "x\n") == ["f.txt: 10 lines -> 11 lines"]


def test_loop_diff_names_each_moved_field():
    old = ("0.5 2.0 2.2 n_base=64 winding=0 min=0.25 points=216 unresolved=0 "
           f"grid={'a' * 64} values={'b' * 64}\n"
           "0.1 3.0 1.0 n_base=64 refused=ResolutionError\n"
           "validation orders=1..64 n_base=64 winding=-n min=1 points=9 unresolved=0 "
           f"grid={'c' * 64} values={'d' * 64}\n")
    new = (old.replace("min=0.25", "min=0.5").replace("b" * 64, "e" * 64)
           .replace("winding=-n", "winding=3:ResolutionError"))
    assert moved_loop_fields("loops.txt", old, new) == [
        "loops.txt:1 0.5 2.0 2.2 n_base=64: min 0.25 -> 0.5 (+1.0e+00), "
        "values bbbbbbbbbbbb -> eeeeeeeeeeee",
        "loops.txt:3 validation orders=1..64 n_base=64: winding -n -> 3:ResolutionError",
    ]
    # a numeric field's relative change; none from 0
    counts = (old.replace("min=0.25", "min=0.50757107523713060")
              .replace("points=216 unresolved=0", "points=200 unresolved=0"))
    moved = (counts.replace("min=0.50757107523713060", "min=0.50757107523713337")
             .replace("points=200 unresolved=0", "points=199 unresolved=2"))
    assert moved_loop_fields("loops.txt", counts, moved) == [
        "loops.txt:1 0.5 2.0 2.2 n_base=64: min 0.50757107523713060 -> 0.50757107523713337 "
        "(+5.5e-15), points 200 -> 199 (-5.0e-03), unresolved 0 -> 2",
    ]
    # with a rounding scale S, a moved min also as a multiple of 16 u S
    scaled = moved_loop_fields("loops.txt", counts, moved, {"0.5 2.0 2.2 n_base=64": 0.25}.get)
    assert scaled == [
        "loops.txt:1 0.5 2.0 2.2 n_base=64: min 0.50757107523713060 -> 0.50757107523713337 "
        "(+5.5e-15, 3.1 x 16uS), points 200 -> 199 (-5.0e-03), unresolved 0 -> 2",
    ]
    refused = new.replace("winding=0 min=0.5", "refused=NotFredholmError min=0.5")
    assert moved_loop_fields("loops.txt", old, refused)[0].startswith("loops.txt:1: 0.5 2.0")
    assert moved_loop_fields("loops.txt", old, old) == []
    assert moved_loop_fields("loops.txt", old, old + "x\n") == ["loops.txt: 3 lines -> 4 lines"]
