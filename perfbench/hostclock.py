"""Program time corrected for the host's speed, measured while the program runs.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
20-40% over seconds to minutes, so a plain wall time of the same work
spreads too widely to gate.  ``HostClock`` samples the host's speed all
through a run: every ``interval_s`` a SIGALRM handler times a fixed piece of
reference work (numpy scalar indexing and bit operations, as in the
pure-Python sweep kernel, and dict updates, as in canonical labeling and
the memo).  The program's time between two samples is divided by the mean of
the two reference times and multiplied by ``REF_NOMINAL_S``, the reference
time on the machine the benchmark was written on.  The sum is the time the
same work would have taken at that machine's usual speed: ``ref_s``.

The time spent sampling is left out of both the plain and the corrected
program time.  The handler runs in the main thread between bytecodes; no
thread or process is started.
"""

from __future__ import annotations

import signal
import time

import numpy as np

_clock = time.perf_counter

# Median time of one reference_work() call on the 2-vCPU machine the
# benchmark was written on (CPython 3.11, numpy 2.4).  It only scales the
# corrected times to seconds; it never changes between runs.
REF_NOMINAL_S = 0.00117

_BASE = (np.arange(16, dtype=np.int64).reshape(8, 2) * 2654435761) % 65521


def reference_work() -> int:
    """A fixed piece of work that moves with the host's speed the way the
    program does.  It allocates no containers, so it never triggers gc."""
    a = _BASE.copy()
    acc = 0
    for i in range(900):
        v = i & 7
        if a[v, i & 1] >> (i % 13) & 1:
            acc |= 1 << v
        a[v, 1] = (a[v, 0] ^ acc) & 0xFFFF
    d = {}
    get = d.get
    for i in range(3000):
        k = (i * 7919) % 1021
        d[k] = get((i * 31) % 1021, 0) + i
    return acc + len(d)


class HostClock:
    """Plain and speed-corrected program time, sampled on SIGALRM.

    ``start_at`` is the plain-clock instant from which program time counts;
    the time before the first sample is corrected with the first sample.
    """

    def __init__(self, interval_s: float = 0.1, start_at: float | None = None):
        self.interval_s = interval_s
        self.sampling_s = 0.0  # time spent in samples, left out of program time
        self.mark = _clock() if start_at is None else start_at  # program time of the last sample
        self.ref_s = 0.0  # corrected program time up to self.mark
        self.last_ref = None
        self.refs: list[float] = []
        self._busy = False
        self._old_handler = None

    def program_s(self) -> float:
        """Plain program time now: the clock minus the time spent sampling."""
        return _clock() - self.sampling_s

    def _sample(self) -> None:
        if self._busy:  # a tick during a sample is dropped
            return
        self._busy = True
        t0 = _clock()
        p = t0 - self.sampling_s
        reference_work()
        ref = _clock() - t0
        mean = ref if self.last_ref is None else (self.last_ref + ref) / 2.0
        self.ref_s += (p - self.mark) * REF_NOMINAL_S / mean
        self.mark = p
        self.last_ref = ref
        self.refs.append(ref)
        self.sampling_s += _clock() - t0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self._sample()

    def start(self) -> "HostClock":
        self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def stop(self) -> None:
        if self._old_handler is None:
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self._old_handler = None
        self._sample()

    def read(self) -> tuple[float, float]:
        """(plain, corrected) program time now, after a fresh sample."""
        self._sample()
        return self.mark, self.ref_s

    def speed(self) -> float:
        """The host's median speed over the samples, relative to the
        nominal machine (above 1 is faster)."""
        refs = sorted(self.refs)
        return REF_NOMINAL_S / refs[len(refs) // 2] if refs else 1.0
