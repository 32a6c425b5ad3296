"""Op times scaled to a fixed machine speed.

On a shared box the speed of the whole machine changes for seconds at a
time: a fixed pure-Python loop took 27 ms in some phases and 47 ms in
others, in CPU time as much as in wall time, on both CPUs.  Medians of raw
times taken minutes apart then differ by 20-30%.

``Meter`` times a block and also samples the machine's speed: it runs a
fixed reference loop just before and just after the block, and every
``INTERVAL`` seconds during it from a SIGALRM handler.  The block's time
excludes the sampling.  Multiplied by the block's mean speed relative to
``REF_NOMINAL_S``, it becomes the time the block would take at the speed
the reference loop shows on a quiet reference box.  Comparisons between
commits on one machine keep their meaning; both raw and scaled times are
recorded.
"""

from __future__ import annotations

import signal
import time

REF_LOOP = 20000
# The reference loop's time on a 2-CPU x86-64 box (Intel Xeon, Python
# 3.11) in its fast phase.
REF_NOMINAL_S = 0.00175
INTERVAL = 0.1


def probe() -> float:
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REF_LOOP):
        acc += (i * 0.5) ** 0.5
    return time.perf_counter() - t0


class Meter:
    """``with Meter() as m: ...`` sets ``m.raw`` and ``m.seconds``
    (raw time scaled to the reference speed) when the block exits, also
    when it raises."""

    def __init__(self):
        self.raw = self.seconds = 0.0
        self._during: list[float] = []

    def _tick(self, signum, frame):
        self._during.append(probe())

    def __enter__(self) -> "Meter":
        self._before = probe()
        self._during = []
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        elapsed = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        refs = [self._before, *self._during, probe()]
        self.raw = elapsed - sum(self._during)
        self.seconds = self.raw * sum(REF_NOMINAL_S / r for r in refs) / len(refs)
