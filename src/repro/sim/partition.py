"""Graph partitioning for the sharded parallel tick kernel.

The parallel engine (:mod:`repro.sim.parallel`) can only tick two
components concurrently when nothing either of them does in its tick
phase is observable by the other within the same cycle.  This module
derives that independence structure from the wiring:

* Components declare a *shard affinity* key
  (:meth:`~repro.sim.Component.shard_affinity`); in the HyperConnect
  topology every per-port pipeline (the port's eFIFO link, its
  Transaction Supervisor, and the accelerator engine driving it) reports
  the port's key, while the shared machinery (EXBAR, central unit,
  master eFIFO, memory subsystem, hypervisor agents) reports ``None``
  and lands in the serial *hub* shard.
* Declared keys are then **merged** (union-find) wherever the wiring
  proves two keys are not actually independent:

  - two keys watching the same channel share that channel's state;
  - two keys observed by the same listener owner (a tracer, a protocol
    checker) would interleave mutations of that owner's state
    nondeterministically;
  - anonymous listeners (plain closures with no ``__self__`` and no
    ``_owner`` attribute) are all attributed to one shared owner, which
    conservatively merges every shard they observe.

* Finally some components are **demoted** to the hub outright:

  - a component with affinity but no :meth:`wake_channels` declaration
    gives the partitioner no way to know which channels it touches;
  - a component carrying completion callbacks owned by a foreign object
    (e.g. the hypervisor's interrupt bridge installed by
    ``attach_accelerator``) mutates shared state from inside its tick.

Channels need no partitioning of their own: the two-phase commit
already double-buffers every channel (staged pushes are invisible until
the serial end-of-cycle commit), so a channel between a shard and the
hub needs no extra synchronization.

The tick schedule is derived from **registration order**: maximal runs
of same-kind components (shard-affine vs hub) become stages, executed in
run order.  Because the reference kernel ticks in registration order,
and all cross-shard interaction is deferred to stage barriers, this
yields byte-identical observables: parallel stages fan their groups out
to workers, hub stages run the serial fast-path loop verbatim.  For the
HyperConnect build order the schedule comes out as::

    [TS pipelines, one group per port]   (parallel)
    [EXBAR, master eFIFO, central unit]  (hub, serial)
    [accelerator engines, per port]      (parallel)
    [memory subsystem, hypervisor]       (hub, serial)

A plan with fewer than two groups in every parallel stage is reported
as not parallelizable and the kernel falls back to the serial fast
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

#: shared owner attributed to listeners that identify no owner at all
_ANON = object()


def _listener_owner(callback: Any) -> Any:
    """The object whose state a listener callback mutates.

    Bound methods carry ``__self__``; library-created closures (e.g.
    :meth:`repro.sim.trace.Tracer.attach_channel`) stamp ``_owner``;
    anything else is anonymous and shares the :data:`_ANON` owner.
    """
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        return owner
    owner = getattr(callback, "_owner", None)
    if owner is not None:
        return owner
    return _ANON


class _UnionFind:
    """Minimal union-find over hashable keys (path-halving, no ranks)."""

    def __init__(self) -> None:
        self._parent: Dict[Any, Any] = {}

    def add(self, key: Any) -> None:
        self._parent.setdefault(key, key)

    def find(self, key: Any) -> Any:
        parent = self._parent
        root = key
        while parent[root] != root:
            parent[root] = parent[parent[root]]
            root = parent[root]
        return root

    def union(self, a: Any, b: Any) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra is not rb:
            # deterministic winner: smaller string key keeps the name
            if str(rb) < str(ra):
                ra, rb = rb, ra
            self._parent[rb] = ra


@dataclass
class Stage:
    """One schedule step: a contiguous registration-order run.

    ``kind`` is ``"parallel"`` (``groups`` maps shard key to its
    ``(reg_index, component)`` members, each group a worker's unit of
    work) or ``"hub"`` (``members`` ticked serially on the main
    thread).  ``start``/``end`` delimit the registration-index range
    covered, used by the barrier to decide whether a woken component
    still gets polled *this* stage.
    """

    kind: str
    start: int
    end: int
    members: List[Tuple[int, Any]] = field(default_factory=list)
    groups: Dict[str, List[Tuple[int, Any]]] = field(default_factory=dict)


@dataclass
class ShardPlan:
    """The partitioning verdict for one simulator wiring."""

    stages: List[Stage]
    #: final (post-merge) shard key per component; ``None`` means hub
    component_keys: Dict[Any, Optional[str]]
    #: registration index per component (the serial tick position)
    component_index: Dict[Any, int]
    #: all distinct non-hub shard keys
    shard_keys: List[str]
    #: why components were demoted to the hub, for diagnostics
    demotions: Dict[str, str] = field(default_factory=dict)

    @property
    def parallelizable(self) -> bool:
        """True when at least one stage can fan out to >= 2 workers."""
        return any(stage.kind == "parallel" and len(stage.groups) >= 2
                   for stage in self.stages)


def _demotion_reason(component: Any, declared) -> Optional[str]:
    """Why a component declaring affinity must run in the hub anyway."""
    if declared is None:
        return ("declares shard affinity but no wake_channels, so its "
                "channel footprint is unknown")
    for callback in getattr(component, "_completion_callbacks", ()):
        owner = _listener_owner(callback)
        if owner is not component:
            return ("carries a completion callback owned by a foreign "
                    "object; its tick mutates shared state")
    return None


def build_plan(sim) -> ShardPlan:
    """Partition ``sim``'s current wiring into a :class:`ShardPlan`.

    Must run after :meth:`Simulator._rebuild_wiring` (it reads the
    channel watcher lists the rebuild derives from ``wake_channels``
    declarations).  The plan is wiring-specific: any later registration
    marks the wiring stale and the parallel engine rebuilds both.
    """
    components = sim._components
    component_index = {comp: idx for idx, comp in enumerate(components)}

    # --- declared affinity, with hub demotions ------------------------
    raw_keys: Dict[Any, Optional[str]] = {}
    demotions: Dict[str, str] = {}
    uf = _UnionFind()
    for comp in components:
        key = comp.shard_affinity()
        if key is not None:
            reason = _demotion_reason(comp, comp.wake_channels())
            if reason is not None:
                demotions[comp.name] = reason
                key = None
        raw_keys[comp] = key
        if key is not None:
            uf.add(key)

    # --- merge keys proven non-independent by the wiring --------------
    # (a) keys sharing a channel: every watcher of a channel reads its
    # committed state during the tick phase, so two shards watching the
    # same channel could only ever be safe by accident.
    owner_keys: Dict[Any, set] = {}
    for channel in sim._channels:
        keys = {raw_keys[w] for w in channel._watchers
                if raw_keys.get(w) is not None}
        if len(keys) > 1:
            first, *rest = keys
            for other in rest:
                uf.union(first, other)
        # (b) collect listener owners per channel for the second pass
        for callback in (*channel._push_listeners, *channel._pop_listeners):
            owner = _listener_owner(callback)
            owner_set = owner_keys.setdefault(owner, set())
            owner_set.update(keys)
            # a listener owned by a shard-affine component ties that
            # component's shard to every channel it observes
            owner_key = raw_keys.get(owner)
            if owner_key is not None:
                owner_set.add(owner_key)
    # (c) keys observed by a common listener owner: the owner's state
    # is mutated from whichever worker ticks the pushing component, so
    # all observed shards must share one worker to keep both memory
    # safety and the serial callback order.
    for keys in owner_keys.values():
        if len(keys) > 1:
            first, *rest = keys
            for other in rest:
                uf.union(first, other)

    component_keys: Dict[Any, Optional[str]] = {
        comp: (uf.find(key) if key is not None else None)
        for comp, key in raw_keys.items()
    }
    shard_keys = sorted({key for key in component_keys.values()
                         if key is not None})

    # --- registration-order stage schedule ----------------------------
    stages: List[Stage] = []
    for idx, comp in enumerate(components):
        key = component_keys[comp]
        kind = "hub" if key is None else "parallel"
        if not stages or stages[-1].kind != kind:
            stages.append(Stage(kind=kind, start=idx, end=idx + 1))
        stage = stages[-1]
        stage.end = idx + 1
        if kind == "hub":
            stage.members.append((idx, comp))
        else:
            stage.groups.setdefault(key, []).append((idx, comp))

    return ShardPlan(stages=stages, component_keys=component_keys,
                     component_index=component_index,
                     shard_keys=shard_keys, demotions=demotions)
