"""Host-speed calibration for timings on a shared machine.

Other tenants of a shared host slow a process down by up to a factor of
four, in bursts that last from a fraction of a second to minutes, and
process CPU time slows down just as much as wall time.  The slowdown hits
all pure-Python work alike, so a fixed piece of work timed right next to a
stretch of the toolkit's work slows down with it.  `measure` times that
fixed work: a rational Gauss-Jordan elimination, a fraction-free integer
elimination and tuple-keyed dict traffic, the three kinds of work the
toolkit does.

`ReferenceClock` times a stretch of work in reference seconds: the time it
would take on a host where one calibration round takes REFERENCE_S.  It runs
a round before the stretch, after it, and inside it each time the stretch
has used INTERVAL_S of CPU time (on SIGPROF), so bursts shorter than a long
item are caught too.  Each piece of the stretch between two rounds is scaled
by the mean of those two rounds; the rounds' own time is left out.

The calibration is stdlib only and never calls jordanalg, so changes to the
toolkit do not move it.
"""

import random
import signal
import time
from fractions import Fraction

# Seconds one calibration round takes at the reference speed: the speed of a
# quiet 2-core Intel Xeon (Sapphire Rapids) VM running Python 3.11.
REFERENCE_S = 0.004
# CPU seconds of a stretch between two rounds inside it.  A round costs about
# REFERENCE_S, so this adds about 13% to the wall time of a run, outside the
# measured time.
INTERVAL_S = 0.03

_RNG = random.Random(20120914)
_RATIONAL = [[Fraction(_RNG.randint(-3, 3), _RNG.randint(1, 3)) for _ in range(11)]
             for _ in range(8)]
_INTEGER = [[_RNG.randint(-3, 3) for _ in range(26)] for _ in range(24)]
_KEYS = [(i % 11, i % 7, i % 5) for i in range(5000)]


def _rational_rank(rows) -> int:
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0])):
        p = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        pivot = m[rank][c]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c] / pivot
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _integer_rank(rows) -> int:
    m = [list(r) for r in rows]
    rank, prev = 0, 1
    for c in range(len(m[0])):
        p = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        pivot = m[rank][c]
        for i in range(rank + 1, len(m)):
            m[i] = [(pivot * a - m[i][c] * b) // prev for a, b in zip(m[i], m[rank])]
        prev = pivot
        rank += 1
    return rank


def _dict_traffic(keys) -> int:
    acc: dict = {}
    for n, k in enumerate(keys):
        acc[k] = acc.get(k, 0) + n
    return len(sorted(acc.items()))


def work() -> tuple[int, int, int]:
    """The fixed work of one calibration round."""
    return _rational_rank(_RATIONAL), _integer_rank(_INTEGER), _dict_traffic(_KEYS)


def measure() -> float:
    """Seconds one calibration round takes on the host right now."""
    t0 = time.perf_counter()
    work()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference time for work done between two
    calibration rounds that took `before` and `after` seconds."""
    return 2 * REFERENCE_S / (before + after)


class ReferenceClock:
    """Times stretches of work, one at a time, in reference seconds.

    With `interval` None it calibrates only between stretches; the traced
    run uses that, so that no calibration lands inside a span."""

    def __init__(self, interval: float | None = INTERVAL_S):
        self.interval = interval
        self._running = False
        self._round = measure()  # the round that ended the previous stretch
        if interval:
            signal.signal(signal.SIGPROF, self._on_prof)

    def start(self) -> None:
        self._elapsed = 0.0
        self._running = True
        if self.interval:
            signal.setitimer(signal.ITIMER_PROF, self.interval)
        self._piece_start = time.perf_counter()

    def stop(self) -> float:
        """End the stretch, if it has not ended yet, and return its
        reference seconds."""
        if not self._running:
            return self._elapsed
        self._running = False  # a SIGPROF still pending now does nothing
        if self.interval:
            signal.setitimer(signal.ITIMER_PROF, 0)
        self._close_piece(time.perf_counter())
        return self._elapsed

    def _close_piece(self, end: float) -> None:
        after = measure()
        self._elapsed += (end - self._piece_start) * scale(self._round, after)
        self._round = after

    def _on_prof(self, signum, frame) -> None:
        if not self._running:
            return
        self._close_piece(time.perf_counter())
        self._piece_start = time.perf_counter()
        signal.setitimer(signal.ITIMER_PROF, self.interval)
