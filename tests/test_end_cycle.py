"""Unit tests for the fast path's end-of-cycle block.

``Simulator._end_cycle`` promises semantics identical to calling
``Channel._commit`` on every dirty channel, plus the kernel duties that
piggyback on a commit (waking sleeping watchers, scheduling far-future
heads on the wake heap) and, on a cycle where nothing ticked and
nothing was dirty, the frozen-horizon computation.  It is checked here
directly against the per-channel reference, and both fast engines are
checked to end every polled cycle through it.
"""

import pytest

from repro.masters import AxiDma
from repro.platforms import ZCU102
from repro.sim import Channel, Component, Simulator
from repro.system import SocSystem

LATENCIES = (1, 2, 3)


def _build(n_channels):
    sim = Simulator("end-cycle", fast=True)
    channels = [
        Channel(sim, f"ch{i}", latency=LATENCIES[i % len(LATENCIES)],
                capacity=None)
        for i in range(n_channels)
    ]
    return sim, channels


def _dirty_mix(sim, channels, cycle):
    """Dirty every channel with one of four kinds of work: pop-only,
    a single push, a multi-item push, or pops and pushes together."""
    for channel in channels:
        channel.push("old")
        channel._commit(cycle - 4)
    sim._dirty_channels.clear()
    sim._cycle = cycle                      # the "old" heads are visible
    for index, channel in enumerate(channels):
        kind = index % 4
        if kind in (0, 3):
            assert channel.pop() == "old"
        if kind == 1:
            channel.push((index, 0))
        elif kind >= 2:
            for item in range(kind):
                channel.push((index, item))


def _state(channel):
    return (list(channel._queue), channel._occupancy, channel._dirty,
            list(channel._staged), channel._popped_this_cycle)


@pytest.mark.parametrize("n_channels", (4, 32), ids=("small", "bulk"))
def test_end_cycle_matches_reference_commit(n_channels):
    cycle = 37
    sim, channels = _build(n_channels)
    _dirty_mix(sim, channels, cycle)
    assert len(sim._dirty_channels) == n_channels

    # the reference: an identical twin committed channel by channel
    ref_sim, ref_channels = _build(n_channels)
    _dirty_mix(ref_sim, ref_channels, cycle)
    for channel in ref_sim._dirty_channels:
        channel._commit(cycle)

    sim._end_cycle(cycle, 1)
    assert sim._dirty_channels == []
    assert sim.skip_stats.commit_batches == 1
    assert sim.skip_stats.commit_channels == n_channels
    for channel, reference in zip(channels, ref_channels):
        assert _state(channel) == _state(reference)
        # fresh ready stamps really are cycle + latency
        for ready, item in channel._queue:
            if item != "old":
                assert ready == cycle + channel.latency


def test_far_future_heads_go_on_the_wake_heap():
    # latency-1 heads are visible by the next polled cycle and are
    # covered by the commit-time watcher wake; only latency > 1 heads
    # need a heap entry
    cycle = 10
    sim, channels = _build(27)
    for channel in channels:
        channel.push("payload")
    sim._end_cycle(cycle, 1)
    heap = sim._wakeheap
    far = [channel for channel in channels if channel.latency > 1]
    assert sim.skip_stats.heap_pushes == len(far)
    assert heap.peek_cycle() == cycle + 2
    due = heap.pop_due(cycle + 3)
    assert set(due) == set(far)
    assert heap.peek_cycle() == float("inf")


def test_end_cycle_wakes_sleeping_watchers():
    sim, channels = _build(4)

    class Sleeper(Component):
        def tick(self, cycle):
            pass

        def is_quiescent(self, cycle):
            return True

        def wake_channels(self):
            return [channels[0]]

    sleeper = Sleeper(sim, "sleeper")
    sim._rebuild_wiring()
    # put the watcher to sleep the way the kernel would
    sleeper._k_asleep = True
    sim._asleep[sleeper] = True
    del sim._awake[sleeper]

    channels[1].push("unwatched")
    sim._end_cycle(3, 0)
    assert sleeper._k_asleep is True

    channels[0].push("payload")
    sim._end_cycle(4, 0)
    assert sleeper._k_asleep is False
    assert sleeper in sim._awake and sleeper not in sim._asleep


def test_pop_accounting_matches_reference():
    # a channel dirtied by pops alone (no staged pushes) must shrink its
    # occupancy exactly as the reference commit does
    cycle = 50
    sim, channels = _build(2)
    ref_sim, ref_channels = _build(2)
    channel, reference = channels[0], ref_channels[0]
    for ch in (channel, reference):
        ch.push("a")
        ch.push("b")
    sim._end_cycle(cycle, 1)
    reference._commit(cycle)
    ref_sim._dirty_channels.clear()
    assert channel.can_pop() is False        # heads ready at cycle + 1
    for s in (sim, ref_sim):
        s._cycle = cycle + channel.latency   # make the heads visible
    assert channel.pop() == reference.pop() == "a"
    sim._end_cycle(cycle + channel.latency, 1)
    reference._commit(cycle + channel.latency)
    assert channel._occupancy == 1
    assert _state(channel) == _state(reference)


def test_idle_cycle_caches_freeze_horizon():
    sim, channels = _build(1)

    class Timer(Component):
        hint = 90

        def tick(self, cycle):
            pass

        def is_quiescent(self, cycle):
            return True

        def next_event_cycle(self, cycle):
            return self.hint

    timer = Timer(sim, "timer")
    sim._rebuild_wiring()
    sim._wakeheap.push(channels[0], 70)
    cycle = 50

    # a tick ran: the state may still change, so no freeze
    sim._end_cycle(cycle, 1)
    assert sim._quiescent_until == 0
    # nothing ticked but a channel was dirty: commit, no freeze
    channels[0].push("x")
    sim._end_cycle(cycle, 0)
    assert sim._quiescent_until == 0
    assert sim.skip_stats.horizon_scans == 0
    # nothing ticked, nothing dirty: frozen until the earlier of the
    # heap minimum and the awake components' hints
    sim._end_cycle(cycle, 0)
    assert sim._quiescent_until == 70
    timer.hint = 60
    sim._end_cycle(cycle, 0)
    assert sim._quiescent_until == 60
    assert sim.skip_stats.horizon_scans == 2


@pytest.mark.parametrize("kwargs", (
    {"fast": True},
    {"parallel": 2, "parallel_backend": "inline"},
), ids=("serial", "sharded"))
def test_every_polled_cycle_ends_in_end_cycle(kwargs):
    soc = SocSystem.build(ZCU102, n_ports=2, period=2048, **kwargs)
    sim = soc.sim
    for port in range(2):
        base = 0x100_0000 * (port + 1)
        AxiDma(sim, f"dma{port}", soc.port(port)).enqueue_read(base, 1024)
    calls = []
    end_cycle = sim._end_cycle

    def counted(cycle, ran):
        calls.append(cycle)
        end_cycle(cycle, ran)

    sim._end_cycle = counted
    sim.run(4_000)
    if sim.parallel:
        assert sim.parallel_plan.parallelizable
    stats = sim.skip_stats
    assert stats.cycles_frozen > 0
    assert len(calls) == stats.cycles_polled
    assert stats.commit_batches > 0
