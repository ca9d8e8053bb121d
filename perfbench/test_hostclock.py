"""Tests of the host-speed correction.

    python3 -m pytest perfbench
"""

import signal

import hostclock
from hostclock import REF_NOMINAL_S, HostClock


class FakeTime:
    """A clock that moves only when told to; reference work takes `ref`."""

    def __init__(self, ref):
        self.now = 100.0
        self.ref = ref

    def clock(self):
        return self.now

    def reference_work(self):
        self.now += self.ref
        return 0


def fake(monkeypatch, ref):
    t = FakeTime(ref)
    monkeypatch.setattr(hostclock, "_clock", t.clock)
    monkeypatch.setattr(hostclock, "reference_work", t.reference_work)
    return t


def test_time_on_a_half_speed_host_is_halved(monkeypatch):
    t = fake(monkeypatch, 2 * REF_NOMINAL_S)
    clock = HostClock(start_at=t.now)
    t.now += 1.0  # one second of program time before the first sample
    plain, corrected = clock.read()
    assert plain == 101.0
    assert abs(corrected - 0.5) < 1e-12
    assert abs(clock.speed() - 0.5) < 1e-12


def test_sampling_is_left_out_and_intervals_use_the_mean_reference(monkeypatch):
    t = fake(monkeypatch, REF_NOMINAL_S)
    clock = HostClock(start_at=t.now)
    clock.read()
    t.ref = 3 * REF_NOMINAL_S  # the host slows down during the next second
    t.now += 1.0
    plain, corrected = clock.read()
    assert abs(plain - 101.0) < 1e-12  # both samples' time is left out
    assert abs(corrected - 0.5) < 1e-12  # mean reference 2x nominal
    assert abs(clock.program_s() - plain) < 1e-12


def test_real_sampling_starts_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = HostClock(interval_s=0.01).start()
    x = 0
    for i in range(300_000):
        x += i * i % 7
    clock.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.refs) >= 3
    assert clock.sampling_s > 0 and clock.ref_s > 0
