"""Host-speed reference loop: the calibration behind every timed metric.

On a shared VM the speed of pure-Python code drifts by up to 2x, in
phases that last from seconds to minutes, so raw host seconds of two
runs of the same code can differ by more than any useful bound.  A
fixed pure-Python loop shaped like the simulator's inner loop
(components polled and ticked, two-phase channels committed) is
therefore sampled right before and right after every timed interval,
and the interval is scaled to the *nominal host*, one on which the loop
takes ``NOMINAL_LOOP_S``:

    calibrated seconds = host seconds * NOMINAL_LOOP_S / loop seconds

with the loop seconds the mean of the two samples around the interval.
Sampled this closely (every 0.1-0.6 s of simulation), the loop slows
down with the simulator: on a 2-vCPU x86-64 VM, 30-second windows of
Fig. 5 fast-mode chunks differed by 1.6x in raw time and by 5% once
calibrated.  Sampled once every few seconds it did not track, which is
why each interval gets its own samples.  Raw figures are printed beside
the calibrated ones.  The loop is benchmark code: a change to the
program cannot move it.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

_CYCLES = 4_000
_COMPONENTS = 12

#: reference-loop seconds of the nominal host (about the loop's time on
#: an uncontended 2-vCPU x86-64 VM with CPython 3.11)
NOMINAL_LOOP_S = 0.014
#: loops per sample; a sample's loop seconds are their mean
SAMPLE_LOOPS = 2


class _Channel:
    __slots__ = ("queue", "staged")

    def __init__(self) -> None:
        self.queue = deque()
        self.staged = []


class _Component:
    def __init__(self, index: int, inbox: _Channel, outbox: _Channel):
        self.index = index
        self.inbox = inbox
        self.outbox = outbox
        self.count = 0

    def is_quiescent(self, cycle: int) -> bool:
        return not self.inbox.queue and bool(cycle & 3)

    def tick(self, cycle: int) -> None:
        queue = self.inbox.queue
        if queue:
            self.outbox.staged.append(queue.popleft() + 1)
            self.count += 1
        elif cycle % 7 == self.index:
            self.outbox.staged.append(cycle)


def reference_loop() -> float:
    """Run the fixed loop once; returns its host seconds."""
    channels = [_Channel() for __ in range(_COMPONENTS)]
    components = [_Component(i, channels[i], channels[(i + 1) % _COMPONENTS])
                  for i in range(_COMPONENTS)]
    began = time.perf_counter()
    for cycle in range(_CYCLES):
        for component in components:
            if not component.is_quiescent(cycle):
                component.tick(cycle)
        for channel in channels:
            if channel.staged:
                channel.queue.extend(channel.staged)
                channel.staged.clear()
            while len(channel.queue) > 4:
                channel.queue.popleft()
    return time.perf_counter() - began


def calibrated(seconds: float, loop_s: float) -> float:
    """``seconds`` measured while the loop took ``loop_s``, as seconds of
    the nominal host."""
    return seconds * NOMINAL_LOOP_S / loop_s


class HostSpeed:
    """Reference-loop samples taken through one run."""

    def __init__(self) -> None:
        self.samples: list = []
        #: host seconds spent sampling, to leave out of timed operations
        self.spent_s = 0.0

    def sample(self) -> float:
        """Run the loop ``SAMPLE_LOOPS`` times; returns their mean."""
        began = time.perf_counter()
        loop_s = sum(reference_loop()
                     for __ in range(SAMPLE_LOOPS)) / SAMPLE_LOOPS
        self.samples.append(loop_s)
        self.spent_s += time.perf_counter() - began
        return loop_s

    def describe(self) -> dict:
        return {"nominal_loop_s": NOMINAL_LOOP_S,
                "reference_loop_s_median": statistics.median(self.samples),
                "reference_loop_s_min": min(self.samples),
                "reference_loop_s_max": max(self.samples),
                "reference_loop_samples": len(self.samples)}
