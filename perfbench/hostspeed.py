"""Host speed, from a fixed reference computation timed between operations.

This host is a few cores of a shared machine, and the same code runs up to
30-50% slower while other tenants are busy, for seconds to minutes at a
time; processor time slows as much as wall time, so the slowdown is the
hardware's, not the scheduler's.  The worker therefore times `reference()`
(a fixed piece of numeric Python that uses no whml) between operations,
about once per SAMPLE_EVERY_S, and scales each operation's time by
REFERENCE_S over the median reference time within WINDOW_S of it: an
operation's time as it would read when the reference takes REFERENCE_S.  A
change to whml moves these times as much as the raw ones, since the
reference does not run whml; a slow stretch of the host moves them far
less.

The reference mixes the kinds of work whml does: an adaptive
`scipy.integrate.quad` over a Python integrand, a Lanczos series on
one-element numpy arrays, `scipy.special.loggamma` over an array and a
scalar complex recurrence.
"""

from __future__ import annotations

import bisect
import cmath
import math
import statistics
from time import perf_counter

import numpy as np
from scipy import integrate, special

# the scale of the reported times: a typical reference time on a 2 vCPU
# Intel Xeon at 2.1 GHz (Python 3.11, numpy 2.4, scipy 1.17)
REFERENCE_S = 0.007
SAMPLE_EVERY_S = 0.2
WINDOW_S = 1.0
MAX_BURST = 5

_Z = np.linspace(0.2, 6.0, 2000) + 0.7j
_LANCZOS = (0.99999999999980993, 676.5203681218851, -1259.1392167224028,
            771.32342877765313, -176.61502916214059, 12.507343278686905,
            -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)


def _log_gamma(z: complex):
    z = np.asarray([z], dtype=complex) - 1.0
    x = np.full_like(z, _LANCZOS[0])
    for i in range(1, len(_LANCZOS)):
        x = x + _LANCZOS[i] / (z + i)
    t = z + 7.5
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * np.log(t) - t + np.log(x)


def reference() -> float:
    """The fixed computation (about 7 ms, see REFERENCE_S)."""
    total = 0.0
    for _ in range(3):
        total += integrate.quad(lambda x: math.exp(-x) * x ** 0.3 * math.cos(x),
                                0.0, 12.0, limit=200)[0]
        for k in range(40):
            total += float(_log_gamma(complex(0.5 + 0.05 * k, 0.3))[0].real)
        total += float(special.loggamma(_Z).real.sum())
        w = 0.3 + 0.4j
        for k in range(800):
            w = cmath.exp(-abs(w)) + 0.1j * k / (1 + k)
        total += w.real
    return total


class HostSpeed:
    """Reference times sampled over a run, as (start, seconds)."""

    def __init__(self):
        reference()  # first call pays lazy set-up
        self.starts, self.times = [], []
        self.last = perf_counter()

    def sample(self) -> None:
        start = perf_counter()
        reference()
        end = perf_counter()
        self.starts.append(start)
        self.times.append(end - start)
        self.last = end

    def maybe_sample(self) -> None:
        """About one sample per SAMPLE_EVERY_S of run: after a long
        operation, several (up to MAX_BURST), so that its window holds
        enough of them."""
        due = int((perf_counter() - self.last) / SAMPLE_EVERY_S)
        for _ in range(min(due, MAX_BURST)):
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median reference time within WINDOW_S of
        [start, end].  maybe_sample() before each operation leaves a sample
        less than SAMPLE_EVERY_S < WINDOW_S before its start."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return REFERENCE_S / statistics.median(self.times[lo:hi])


class Unscaled:
    """Stands in for HostSpeed where times are reported as measured."""

    def maybe_sample(self) -> None:
        pass

    def scale(self, start: float, end: float) -> float:
        return 1.0
