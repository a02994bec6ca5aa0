"""The sharded parallel tick engine.

Executes the stage schedule derived by :mod:`repro.sim.partition`: each
cycle walks the stages in registration order, fanning the groups of a
parallel stage out to workers and running hub stages with the serial
fast-path loop verbatim.  Channel commits, wake-heap maintenance, and
frozen-horizon bookkeeping stay serial on the main thread: each cycle
ends in the same :meth:`Simulator._end_cycle` call that ends a cycle of
:meth:`Simulator._run_fast`.

Determinism
-----------

The engine produces byte-identical observables to the serial reference
path.  The argument has three legs:

1. **Channel traffic is order-free.**  Pushes are staged and invisible
   until the end-of-cycle commit (the two-phase protocol *is* the
   boundary double-buffering), so the tick order of components — and
   therefore which worker ticks them, in what interleaving — cannot
   change what any component observes.
2. **Cross-shard services are deferred and replayed in serial order.**
   While workers run, ``Simulator.wake`` / ``Component.wake`` and
   ``EventBus.publish`` are routed into per-group record lists, each
   entry tagged with the acting component's registration index.  The
   stage barrier merges the lists by index and replays them: wakes move
   sleepers exactly as the serial loop would, events dispatch to
   subscribers in the order the serial loop would have dispatched them
   (nested publishes and subscriber wakes included), and a woken
   component whose serial tick position lies *after* its waker within
   the current stage is re-polled at the barrier — sound because a
   cross-group mutation is confined to the waker's shard and therefore
   cannot change the answer the poll would have given mid-loop.
3. **Intra-group wakes are handled inline.**  A wake raised by a group
   member targeting a later member of the same group sets a scratch
   flag the group's own loop honours immediately, reproducing the
   serial mid-loop wake semantics without waiting for the barrier.

Sleep decisions made by workers are likewise deferred (the worker
computes the ``next_event_cycle`` hint, the barrier performs the
dict moves and heap pushes), so the kernel's ``_awake`` / ``_asleep``
structures are only ever mutated on the main thread.

The poll-backoff flags (``_k_mask`` / ``_k_miss`` / ``_k_quiet``) are
component-local and only touched by the worker that owns the
component's group, so their evolution is deterministic too; it may
differ from the *serial fast* path's evolution (the barrier re-poll sees
a slightly different moment than the mid-loop poll would have), which is
fine — skipping is only ever applied to provably no-op ticks, so
observables match the reference path bit-for-bit either way.

Backends
--------

``threads``
    A persistent :class:`~concurrent.futures.ThreadPoolExecutor`; the
    main thread runs the first group itself.  On a stock (GIL) build
    pure-Python ticks do not actually overlap, which is why ``auto``
    measures instead of assuming.
``inline``
    The same staged execution on one thread.  All the deferral and
    barrier machinery still runs, so results are identical to
    ``threads`` by construction, and the per-shard quiescence tracking
    (sleep/skip/freeze per port pipeline) still beats the reference
    path by a wide margin on bursty workloads.
``auto``
    Considers the worker count, the CPU count and the interpreter's GIL
    state, then falls back to a one-off spin-workload calibration
    (cached per process) that picks ``threads`` only when the measured
    speedup clears :data:`_CROSSOVER_MARGIN` — a measured crossover,
    not a guess.  Single-core hosts and GIL builds land on ``inline``.

The backend that actually executed is exposed in
``sim.skip_stats.resolved_backend`` and, with the full decision trail,
in :attr:`ParallelEngine.backend_resolution` — so a benchmark sidecar
or a regression bisect can always tell which engine produced a number.
"""

from __future__ import annotations

import heapq
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from threading import local
from typing import Dict, List, Optional, Tuple

from .errors import SimulationError
from .kernel import (_BACKOFF_AFTER, _BACKOFF_MASK_FIRST, _BACKOFF_MASK_MAX,
                     _SLEEP_AFTER, check_parallel_backend)
from .partition import ShardPlan, Stage, build_plan
from .stats import KernelSkipStats

#: measured threads-over-inline speedup required before ``auto`` picks
#: the thread pool; anything less and dispatch overhead eats the gain
_CROSSOVER_MARGIN = 1.1

#: process-wide calibration verdicts, keyed by worker count
_CROSSOVER_CACHE: Dict[int, str] = {}


def _gil_enabled() -> Optional[bool]:
    """Probe the runtime GIL state (PEP 703).

    ``False`` on a free-threaded 3.13+ build running with the GIL
    disabled, ``True`` when the GIL is active, ``None`` when the
    interpreter predates the probe (conventional builds, < 3.13).
    """
    probe = getattr(sys, "_is_gil_enabled", None)
    if probe is None:
        return None
    return bool(probe())


def _spin(iterations: int = 40) -> int:
    """Pure-Python busy work resembling a group's tick loop.

    Deliberately *not* a GIL-releasing workload: component ticks are
    pure Python, so a calibration that parallelizes (e.g. ``sleep``)
    would overstate what the thread pool can deliver.
    """
    acc = 0
    for _ in range(iterations):
        acc += sum(range(400))
    return acc


def measured_backend(workers: int) -> str:
    """Pick the best backend for ``workers`` on this host.

    * one worker never benefits from any pool — ``inline``;
    * on a free-threaded 3.13+ build actually running without the GIL
      (``sys._is_gil_enabled()`` returns False) and with cores to
      spare, ``threads`` is genuinely parallel — picked directly, no
      calibration needed;
    * otherwise the threads-vs-inline question is *measured* with a
      GIL-bound spin workload (cached per worker count):
      on GIL builds and single-core hosts ``inline`` wins, on
      free-threaded builds with cores to spare ``threads`` wins.
    """
    if workers <= 1:
        return "inline"
    if _gil_enabled() is False and (os.cpu_count() or 1) > 1:
        return "threads"
    cached = _CROSSOVER_CACHE.get(workers)
    if cached is not None:
        return cached
    start = time.perf_counter()
    for _ in range(workers):
        _spin()
    t_inline = time.perf_counter() - start

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        pool.submit(_spin, 1).result()  # absorb thread start-up cost
        start = time.perf_counter()
        futures = [pool.submit(_spin) for _ in range(workers)]
        for future in futures:
            future.result()
        t_threads = time.perf_counter() - start
    finally:
        pool.shutdown(wait=True)

    choice = ("threads"
              if t_threads > 0 and t_inline / t_threads > _CROSSOVER_MARGIN
              else "inline")
    _CROSSOVER_CACHE[workers] = choice
    return choice


class _GroupScratch:
    """Per-(stage, group) working state, reused across cycles."""

    __slots__ = ("key", "members", "member_set", "records", "woke_all",
                 "wake_targets", "polled", "current_idx", "ran",
                 "skipped", "slept")

    def __init__(self, key: str, members: List[Tuple[int, object]]) -> None:
        self.key = key
        self.members = members
        self.member_set = {comp for _idx, comp in members}
        self.records: List[Tuple[int, str, object]] = []
        self.woke_all = False
        self.wake_targets: set = set()
        self.polled: set = set()
        self.current_idx = -1
        # cumulative across cycles; folded into the per-shard stats once
        # per run_to (per-cycle folding costs more than the ticks)
        self.ran = 0
        self.skipped = 0
        self.slept = 0

    def reset(self) -> None:
        self.records.clear()
        self.woke_all = False
        if self.wake_targets:
            self.wake_targets.clear()
        if self.polled:
            self.polled.clear()

    def flush_stats(self, stats: KernelSkipStats, cycles: int) -> None:
        stats.ticks_run += self.ran
        stats.ticks_skipped += self.skipped
        stats.ticks_slept += self.slept
        stats.cycles_polled += cycles
        stats.cycles_total += cycles
        self.ran = 0
        self.skipped = 0
        self.slept = 0


class ParallelEngine:
    """Sharded staged executor attached to one :class:`Simulator`.

    Constructed lazily by the kernel when ``Simulator(parallel=N)`` is
    first asked to advance; falls back (via :meth:`active`) whenever the
    current wiring yields fewer than two shard groups.
    """

    def __init__(self, sim, workers: int, backend: str = "auto") -> None:
        if workers < 1:
            raise SimulationError("parallel worker count must be >= 1")
        check_parallel_backend(backend)
        self.sim = sim
        self.workers = workers
        self.backend = backend
        #: per-shard skip accounting (keys: shard keys plus "hub")
        self.shard_stats: Dict[str, KernelSkipStats] = {}
        self._plan: Optional[ShardPlan] = None
        self._scratches: Dict[int, List[_GroupScratch]] = {}
        self._schedule: list = []
        self._executor: Optional[ThreadPoolExecutor] = None
        self._resolved_backend: Optional[str] = None
        #: requested/resolved/reason decision trail of the last backend
        #: resolution (attribution for bench sidecars and tests)
        self.backend_resolution: Dict[str, object] = {}
        self._tls = local()
        # barrier working state (only valid while _barrier runs)
        self._worklist: Optional[list] = None
        self._wl_seq = 0
        self._wl_polled: Optional[set] = None
        self._stage_bounds = (0, 0)
        self._barrier_idx = 0
        self._bar_skipped = 0
        self._resolve_backend()

    # ------------------------------------------------------------------
    # plan / backend lifecycle
    # ------------------------------------------------------------------

    def active(self) -> bool:
        """Whether the current wiring is worth sharding at all."""
        sim = self.sim
        if sim._wiring_stale:
            sim._rebuild_wiring()
            self._refresh_plan()
        elif self._plan is None:
            self._refresh_plan()
        return self._plan.parallelizable

    @property
    def plan(self) -> Optional[ShardPlan]:
        """The current :class:`ShardPlan` (None before first use)."""
        return self._plan

    def _refresh_plan(self) -> None:
        # fold any counters accumulated under the outgoing plan first
        for scratch_list in self._scratches.values():
            for scratch in scratch_list:
                scratch.flush_stats(
                    self.shard_stats.setdefault(scratch.key,
                                                KernelSkipStats()), 0)
        self._plan = build_plan(self.sim)
        self._scratches = {}
        # precompiled walk order: (stage, scratches) with scratches None
        # for hub stages
        self._schedule = []
        for stage_no, stage in enumerate(self._plan.stages):
            if stage.kind == "parallel":
                scratches = [
                    _GroupScratch(key, members)
                    for key, members in stage.groups.items()
                ]
                self._scratches[stage_no] = scratches
                self._schedule.append((stage, scratches))
            else:
                self._schedule.append((stage, None))
        for key in (*self._plan.shard_keys, "hub"):
            self.shard_stats.setdefault(key, KernelSkipStats())

    # ------------------------------------------------------------------
    # backend resolution
    # ------------------------------------------------------------------

    def _resolve_backend(self) -> None:
        """Decide which backend this engine runs on.

        The decision trail lands in :attr:`backend_resolution` and the
        verdict in ``sim.skip_stats.resolved_backend``.
        """
        requested = self.backend
        if requested == "auto":
            resolved, reason = measured_backend(self.workers), "measured"
        else:
            resolved, reason = requested, "requested"
        self._resolved_backend = resolved
        self.backend_resolution = {
            "requested": requested,
            "resolved": resolved,
            "reason": reason,
            # PEP 703 probe: False = free-threaded build, GIL off
            # (threads overlap for real); None = probe unavailable
            "gil_enabled": _gil_enabled(),
        }
        self.sim.skip_stats.resolved_backend = resolved

    def _use_threads(self) -> bool:
        return self._resolved_backend == "threads" and self.workers > 1

    def close(self) -> None:
        """Shut the thread pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    # ------------------------------------------------------------------
    # deferred kernel services (armed only during parallel stages)
    # ------------------------------------------------------------------

    def _stage_route(self, target) -> None:
        """Record a wake raised inside a worker's tick loop."""
        ctx = getattr(self._tls, "ctx", None)
        if ctx is None:  # pragma: no cover - defensive
            self.sim._wake_direct(target)
            return
        ctx.records.append((ctx.current_idx, "wake", target))
        if target is None:
            ctx.woke_all = True
        elif target in ctx.member_set:
            ctx.wake_targets.add(target)

    def _barrier_route(self, target) -> None:
        """Record a wake raised while the barrier replays records."""
        self._wl_seq += 1
        heapq.heappush(self._worklist,
                       (self._barrier_idx, self._wl_seq, "wake", target))

    def _defer_event(self, event) -> None:
        """Record an event published inside a worker's tick loop."""
        ctx = getattr(self._tls, "ctx", None)
        if ctx is None:  # pragma: no cover - defensive
            self.sim.events._dispatch(event)
            return
        ctx.records.append((ctx.current_idx, "event", event))

    # ------------------------------------------------------------------
    # cycle execution
    # ------------------------------------------------------------------

    def run_to(self, end: int) -> None:
        """Advance the simulator to ``end`` (the parallel ``_run_fast``).

        Dispatch loop: each span runs until ``end`` or until the wiring
        changes; a changed wiring is re-planned before the next span,
        and a fresh plan that is not worth sharding hands the rest of
        the run to the serial fast path.
        """
        sim = self.sim
        while sim._cycle < end:
            if sim._wiring_stale:
                sim._rebuild_wiring()
                self._refresh_plan()
                if not self._plan.parallelizable:
                    sim._run_fast(end)
                    return
            self._run_span(end)

    def _run_span(self, end: int) -> None:
        """Run the stage schedule serially-equivalently up to ``end``.

        Mirrors the serial fast path cycle for cycle: frozen-horizon
        jumps, heap wakes at cycle start, the stage walk in place of the
        flat component loop, then the same :meth:`Simulator._end_cycle`
        call (commit, or freeze if nothing happened).
        """
        sim = self.sim
        schedule = self._schedule
        stats = sim.skip_stats
        heap_list = sim._wakeheap._heap
        end_cycle = sim._end_cycle
        ran_total = 0
        polled = 0
        frozen = 0
        heap_pushes = 0
        hub_ran = 0
        hub_skipped = 0
        hub_slept = 0
        self._bar_skipped = 0
        try:
            while sim._cycle < end:
                if sim._finished:
                    raise SimulationError(
                        f"simulator {sim.name!r} stepped after finish()")
                cycle = sim._cycle
                if cycle < sim._quiescent_until:
                    jump_to = sim._quiescent_until
                    if jump_to > end:
                        jump_to = end
                    frozen += jump_to - cycle
                    sim._cycle = jump_to
                    continue
                if sim._wiring_stale:
                    # hand the rebuild back to the dispatch loop
                    break
                if heap_list and heap_list[0][0] <= cycle:
                    sim._wake_due(cycle)
                ran = 0
                for stage, scratches in schedule:
                    if scratches is None:
                        r, s, sl, hp = self._run_hub_stage(cycle, stage)
                        hub_ran += r
                        hub_skipped += s
                        hub_slept += sl
                        heap_pushes += hp
                        ran += r
                        continue
                    # awake sweep: fan out only the groups with at
                    # least one awake member.  A fully sleeping group
                    # cannot tick this stage — every wake that could
                    # concern it has already been applied (heap wakes
                    # at cycle start, hub wakes directly, earlier
                    # barriers, commit wakes after all stages) and a
                    # wake raised *during* this stage is deferred to
                    # the barrier, which works off the active groups'
                    # records alone.  Matches the serial fast path,
                    # where sleepers are absent from the awake ring.
                    active = None
                    for scratch in scratches:
                        for _idx, component in scratch.members:
                            if not component._k_asleep:
                                if active is None:
                                    active = [scratch]
                                else:
                                    active.append(scratch)
                                break
                    if active is not None:
                        ran += self._run_parallel_stage(
                            cycle, stage, active)
                ran_total += ran
                polled += 1
                end_cycle(cycle, ran)
                sim._cycle = cycle + 1
        finally:
            # fold the cumulative per-shard counters exactly once per
            # run (folding per cycle costs more than the ticks saved)
            skipped = hub_skipped + self._bar_skipped
            slept = hub_slept
            for scratch_list in self._scratches.values():
                for scratch in scratch_list:
                    skipped += scratch.skipped
                    slept += scratch.slept
                    scratch.flush_stats(self.shard_stats[scratch.key], 0)
            for key in self.shard_stats:
                self.shard_stats[key].cycles_polled += polled
                self.shard_stats[key].cycles_total += polled
            hub = self.shard_stats["hub"]
            hub.ticks_run += hub_ran
            hub.ticks_skipped += hub_skipped
            hub.ticks_slept += hub_slept
            self._bar_skipped = 0
            stats.ticks_run += ran_total
            stats.ticks_skipped += skipped
            stats.ticks_slept += slept
            stats.cycles_polled += polled
            stats.cycles_frozen += frozen
            stats.cycles_total += polled + frozen
            stats.heap_pushes += heap_pushes

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------

    def _run_hub_stage(self, cycle: int, stage: Stage
                       ) -> Tuple[int, int, int, int]:
        """Tick a hub run with the serial fast-path block, verbatim.

        Runs with the wake router disarmed and the event bus live, so a
        hub component's direct cross-component calls, publishes, and
        wakes behave exactly as on the serial fast path — including the
        mid-loop visibility of a wake raised by an earlier hub member.
        """
        sim = self.sim
        heap_push = sim._wakeheap.push
        ran = 0
        skipped = 0
        slept = 0
        heap_pushes = 0
        for _idx, component in stage.members:
            if component._k_asleep:
                slept += 1
                continue
            mask = component._k_mask
            if mask and cycle & mask:
                component.tick(cycle)
                ran += 1
                continue
            if component.is_quiescent(cycle):
                skipped += 1
                if mask:
                    component._k_mask = mask >> 1
                elif component._k_miss:
                    component._k_miss -= 1
                if component._k_sleepable:
                    quiet = component._k_quiet + 1
                    if quiet >= _SLEEP_AFTER:
                        component._k_asleep = True
                        del sim._awake[component]
                        sim._asleep[component] = True
                        hint = component.next_event_cycle(cycle)
                        if hint is not None and hint > cycle:
                            if heap_push(component, hint):
                                heap_pushes += 1
                    else:
                        component._k_quiet = quiet
            else:
                component.tick(cycle)
                ran += 1
                component._k_quiet = 0
                if mask:
                    if mask < _BACKOFF_MASK_MAX:
                        component._k_mask = (mask << 1) | 1
                else:
                    miss = component._k_miss + 1
                    if miss >= _BACKOFF_AFTER:
                        component._k_mask = _BACKOFF_MASK_FIRST
                        component._k_miss = 0
                    else:
                        component._k_miss = miss
        return ran, skipped, slept, heap_pushes

    def _run_parallel_stage(self, cycle: int, stage: Stage,
                            scratches: List[_GroupScratch]) -> int:
        """Fan the stage's groups out, then replay the barrier records.

        Returns the number of ticks actually run.  The caller has
        already established that at least one member is awake (the
        all-asleep sweep in :meth:`run_to`).
        """
        sim = self.sim
        bus = sim.events
        ran = 0
        for scratch in scratches:
            scratch.reset()
        sim._wake_router = self._stage_route
        bus._defer = self._defer_event
        try:
            if self._use_threads() and len(scratches) > 1:
                executor = self._executor
                if executor is None:
                    executor = self._executor = ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix=f"{sim.name}-shard")
                futures = [executor.submit(self._run_group, cycle, scratch)
                           for scratch in scratches[1:]]
                errors: list = []
                try:
                    ran += self._run_group(cycle, scratches[0])
                finally:
                    for future in futures:
                        try:
                            ran += future.result()
                        except BaseException as exc:  # noqa: BLE001
                            errors.append(exc)
                if errors:
                    raise errors[0]
            else:
                for scratch in scratches:
                    ran += self._run_group(cycle, scratch)
        finally:
            bus._defer = None
            sim._wake_router = None
        return ran + self._barrier(cycle, stage, scratches)

    def _run_group(self, cycle: int, scratch: _GroupScratch) -> int:
        """One worker's slice of the tick phase: the serial visit block
        with sleeps deferred and intra-group wakes honoured inline.
        Returns the number of ticks run."""
        self._tls.ctx = scratch
        ran = 0
        try:
            records = scratch.records
            wake_targets = scratch.wake_targets
            for idx, component in scratch.members:
                scratch.current_idx = idx
                if component._k_asleep:
                    if scratch.woke_all or component in wake_targets:
                        # an earlier member woke it mid-loop: re-poll it
                        # this cycle, exactly as the serial loop would
                        # (the barrier finishes the dict bookkeeping)
                        component._k_quiet = 0
                        scratch.polled.add(component)
                    else:
                        scratch.slept += 1
                        continue
                mask = component._k_mask
                if mask and cycle & mask:
                    component.tick(cycle)
                    ran += 1
                    continue
                if component.is_quiescent(cycle):
                    scratch.skipped += 1
                    if mask:
                        component._k_mask = mask >> 1
                    elif component._k_miss:
                        component._k_miss -= 1
                    if component._k_sleepable:
                        quiet = component._k_quiet + 1
                        if quiet >= _SLEEP_AFTER:
                            # defer the dict moves and heap push to the
                            # barrier; the hint is computed here, at the
                            # same logical point the serial path would
                            records.append((idx, "sleep", (
                                component,
                                component.next_event_cycle(cycle))))
                        else:
                            component._k_quiet = quiet
                else:
                    component.tick(cycle)
                    ran += 1
                    component._k_quiet = 0
                    if mask:
                        if mask < _BACKOFF_MASK_MAX:
                            component._k_mask = (mask << 1) | 1
                    else:
                        miss = component._k_miss + 1
                        if miss >= _BACKOFF_AFTER:
                            component._k_mask = _BACKOFF_MASK_FIRST
                            component._k_miss = 0
                        else:
                            component._k_miss = miss
        finally:
            scratch.ran += ran
            self._tls.ctx = None
        return ran

    # ------------------------------------------------------------------
    # barrier
    # ------------------------------------------------------------------

    def _barrier(self, cycle: int, stage: Stage,
                 scratches: List[_GroupScratch]) -> int:
        """Replay the stage's deferred records in serial order.

        Records are merged by the acting component's registration index
        (each index belongs to exactly one group, so the merge is a
        total order) and processed on the main thread with the event
        bus live and wakes classified at the current index — so nested
        publishes, subscriber wakes, and re-polls interleave exactly
        where the serial loop would have placed them.
        """
        sim = self.sim
        heap = sim._wakeheap
        bus = sim.events
        worklist: list = []
        seq = 0
        polled: set = set()
        for scratch in scratches:
            if scratch.polled:
                polled |= scratch.polled
            for rec_idx, kind, payload in scratch.records:
                worklist.append((rec_idx, seq, kind, payload))
                seq += 1
        if not worklist:
            return 0
        heapq.heapify(worklist)
        self._worklist = worklist
        self._wl_seq = seq
        self._wl_polled = polled
        self._stage_bounds = (stage.start, stage.end)
        ran = 0
        sim._wake_router = self._barrier_route
        try:
            while worklist:
                idx, _seq, kind, payload = heapq.heappop(worklist)
                self._barrier_idx = idx
                if kind == "wake":
                    self._apply_wake(idx, payload)
                elif kind == "sleep":
                    component, hint = payload
                    if not component._k_asleep:
                        component._k_asleep = True
                        del sim._awake[component]
                        sim._asleep[component] = True
                        if hint is not None and hint > cycle:
                            if heap.push(component, hint):
                                sim.skip_stats.heap_pushes += 1
                elif kind == "event":
                    bus._dispatch(payload)
                else:  # "poll": a barrier re-poll of a woken component
                    component = payload
                    if component in polled:
                        continue
                    polled.add(component)
                    ran += self._barrier_visit(component, cycle)
        finally:
            sim._wake_router = None
            self._worklist = None
            self._wl_polled = None
        return ran

    def _apply_wake(self, w_idx: int, target) -> None:
        """Replay one deferred wake (global when ``target`` is None)."""
        sim = self.sim
        sim._quiescent_until = 0
        if target is None:
            asleep = sim._asleep
            if asleep:
                for component in list(asleep):
                    self._wake_one(component, w_idx)
        elif target._k_asleep:
            self._wake_one(target, w_idx)

    def _wake_one(self, component, w_idx: int) -> None:
        sim = self.sim
        component._k_asleep = False
        del sim._asleep[component]
        sim._awake[component] = True
        sim._wakeheap.invalidate(component)
        if component not in self._wl_polled:
            component._k_quiet = 0
            cidx = self._plan.component_index[component]
            start, end = self._stage_bounds
            if start <= cidx < end and cidx > w_idx:
                # the component's serial tick position lies after its
                # waker within this stage: the serial loop would have
                # re-polled it, so the barrier does too, at its index
                self._wl_seq += 1
                heapq.heappush(self._worklist,
                               (cidx, self._wl_seq, "poll", component))

    def _barrier_visit(self, component, cycle: int) -> int:
        """The serial visit block for a component re-polled at the
        barrier; cannot re-sleep (its quiet counter was just reset)."""
        stats = self.shard_stats.get(
            self._plan.component_keys.get(component) or "hub")
        mask = component._k_mask
        if mask and cycle & mask:
            component.tick(cycle)
            if stats is not None:
                stats.ticks_run += 1
            return 1
        if component.is_quiescent(cycle):
            self._bar_skipped += 1
            if stats is not None:
                stats.ticks_skipped += 1
            if mask:
                component._k_mask = mask >> 1
            elif component._k_miss:
                component._k_miss -= 1
            if component._k_sleepable:
                component._k_quiet += 1
            return 0
        component.tick(cycle)
        if stats is not None:
            stats.ticks_run += 1
        component._k_quiet = 0
        if mask:
            if mask < _BACKOFF_MASK_MAX:
                component._k_mask = (mask << 1) | 1
        else:
            miss = component._k_miss + 1
            if miss >= _BACKOFF_AFTER:
                component._k_mask = _BACKOFF_MASK_FIRST
                component._k_miss = 0
            else:
                component._k_miss = miss
        return 1
