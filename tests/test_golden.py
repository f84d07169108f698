"""The command line prints the committed golden bytes (tests/golden/)."""

import pytest

from golden.make_golden import GOLDEN_DIR, commands, render

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
