"""Slot timing scaled to a reference machine speed.

On the 2-core machine this benchmark was written on, the same code runs at
two speeds about 1.7x apart: the machine flips between them within a
second and spends more or less of its time slow for minutes on end, so a
10 s run can be a third slower than the next whatever it runs. A slot timed
like that says more about the machine than about eigencop. So the clock
times a fixed probe, a loop of Python and numpy arithmetic that calls
nothing of eigencop, at slot boundaries (at most every PROBE_EVERY_S and
at the end of each round), for PROBE_SHARE of the slot time since the last
probe and at least PROBE_MIN_S. Each slot's time is scaled by PROBE_REF_S
over the probes' mean loop time around it, weighted by their lengths: the
time the slot would take on a machine on which the probe loop takes
PROBE_REF_S. A change to eigencop moves the slot times and leaves the
probe as it was.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PROBE_REF_S = 0.005  # about the probe loop's time in a fast phase of that machine
PROBE_EVERY_S = 0.5
PROBE_SHARE = 0.05
PROBE_MIN_S = 0.03
_PROBE_X = np.linspace(0.0, 1.0, 20000)


def probe(seconds: float = PROBE_MIN_S) -> tuple[float, float]:
    """Run the probe loop for at least `seconds`: (mean seconds per loop,
    seconds taken)."""
    t0 = perf_counter()
    loops = 0
    while True:
        s = 0
        for i in range(20000):
            s += i * i
        for _ in range(20):
            float(np.sin(_PROBE_X).sum())
        loops += 1
        took = perf_counter() - t0
        if took >= seconds:
            return took / loops, took


class Clock:
    """Times named slots, probes the machine's speed between them, and
    forwards spans to `span` (a tracer's, or one that records nothing)."""

    def __init__(self, span):
        self.span = span
        self.scaled = {}  # slot -> seconds at the reference speed, one per round
        self.raw = {}  # slot -> seconds as measured
        self.probes = []  # (mean seconds per probe loop, seconds probed)
        self._pending = []
        self._probe()

    def _probe(self):
        pending_s = sum(t for _, t in self._pending)
        loop, took = probe(max(PROBE_MIN_S, PROBE_SHARE * pending_s))
        if self._pending:
            prev_loop, prev_took = self.probes[-1]
            speed = (prev_loop * prev_took + loop * took) / (prev_took + took)
            for name, t in self._pending:
                self.scaled.setdefault(name, []).append(t * PROBE_REF_S / speed)
                self.raw.setdefault(name, []).append(t)
            self._pending = []
        self.probes.append((loop, took))
        self._probed_at = perf_counter()

    @contextmanager
    def slot(self, name):
        if perf_counter() - self._probed_at > PROBE_EVERY_S:
            self._probe()
        t0 = perf_counter()
        yield
        self._pending.append((name, perf_counter() - t0))

    def end_round(self):
        """Scale the round's last slots by a probe taken now."""
        self._probe()

    def measured_s(self) -> float:
        """Raw seconds inside slots so far."""
        return sum(map(sum, self.raw.values())) + sum(t for _, t in self._pending)

    def round_s(self) -> float:
        """Seconds for one round at the reference speed: the sum over slots
        of each slot's median over the rounds."""
        return sum(statistics.median(ts) for ts in self.scaled.values())
