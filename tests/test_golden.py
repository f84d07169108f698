"""The command line prints the committed golden bytes (tests/golden/)."""

import pytest

from golden.make_golden import GOLDEN_DIR, commands, moved_values, render

GOLDEN = commands()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_output(name):
    want = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    got = render(GOLDEN[name])
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
