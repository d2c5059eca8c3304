"""Host speed, read from a fixed reference loop run between operations.

The benchmark shares a few cores of a host with other work, and the speed
it gets drifts: the same pass can take twice as long for a minute at a
time, and the speed flips between two levels within seconds.  So a run
times a fixed pure-Python loop (Fraction arithmetic on dict polynomials and
a sort: the kind of work the program does) every SAMPLE_EVERY_S between
operations.  The loop is the benchmark's own code and never calls the
program, so a change to the program cannot change it; only the host can.
A phase of the run is scaled by REFERENCE_S over the mean loop time in it,
which reports it at the speed the host gives when the loop takes
REFERENCE_S.  The mean, not the median: the loop samples the phase evenly
in time, and the phase's operations ran at its mean speed.
"""

from __future__ import annotations

import gc
import random
import statistics
from fractions import Fraction
from time import perf_counter

# About the loop's time on a 2-vCPU cloud VM at its usual speed.
REFERENCE_S = 0.02
SAMPLE_EVERY_S = 0.2


def _polynomial(seed: int, terms: int) -> dict[tuple[int, int, int], Fraction]:
    rng = random.Random(seed)
    return {(rng.randrange(8), rng.randrange(8), rng.randrange(8)):
            Fraction(rng.randrange(1, 50), rng.randrange(1, 30)) for _ in range(terms)}


_A, _B = _polynomial(1, 70), _polynomial(2, 70)


def reference_loop() -> int:
    """The product of two fixed 70-term polynomials, and its terms sorted."""
    out: dict[tuple[int, int, int], Fraction] = {}
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
            out[e] = out.get(e, 0) + ca * cb
    return len(sorted(out, key=lambda e: (sum(e), e)))


class HostSpeed:
    """Loop runs at times of the caller's choosing, and the factors they give."""

    def __init__(self) -> None:
        self.stamps: list[float] = []
        self.times: list[float] = []
        reference_loop()  # the first run is slower: warm-up, not measured

    def sample(self) -> None:
        """One loop run; the collector is off so the program's heap cannot slow it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            reference_loop()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.stamps.append(t0)
        self.times.append(t1 - t0)

    def maybe_sample(self) -> None:
        if not self.stamps or perf_counter() - self.stamps[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean loop time of the runs begun in [start, end]."""
        times = [t for s, t in zip(self.stamps, self.times) if start <= s <= end]
        return REFERENCE_S / statistics.fmean(times)
