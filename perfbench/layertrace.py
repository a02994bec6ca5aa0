"""Layer tracing installed from outside the program, and removed after.

Two kinds of instrumentation, both reversible:

* **spans** around public entry points, patched onto module or class
  attributes (``repro.verify.oracles.check_*``, ``repro.verify.harness``
  builders, ``TlmEngine.advance`` ...): name, start, end, parent and run
  id, kept in memory and written out once at the end;
* **accumulators** on every component instance: ``tick``,
  ``is_quiescent`` and ``next_event_cycle`` are shadowed by instance
  attributes that add call counts and host nanoseconds per (mode, layer)
  -- no per-cycle spans.

:meth:`LayerTracer.close` puts every original back and reports whether
anything was left behind.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

HOOKS = (("tick", 0, 1), ("is_quiescent", 2, 3), ("next_event_cycle", 2, 3))


def _timed(original: Callable, acc: list, ns_slot: int, count_slot: int):
    clock = time.perf_counter_ns

    def hook(cycle):
        began = clock()
        result = original(cycle)
        acc[ns_slot] += clock() - began
        acc[count_slot] += 1
        return result
    return hook


class LayerTracer:
    """Spans and per-component accumulators for one traced run."""

    def __init__(self, run_id: str, layer_of: Callable) -> None:
        self.run_id = run_id
        self.layer_of = layer_of
        self.spans: List[dict] = []
        #: (mode, layer) -> [tick_ns, ticks, poll_ns, polls]
        self.layers: Dict[Tuple[str, str], list] = {}
        self._stack: List[int] = []
        self._next_id = 1
        self._patched: List[tuple] = []
        self._instances: list = []

    # ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; the yielded dict takes late attributes."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield attrs
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append({"id": span_id, "parent": parent,
                               "run": self.run_id, "name": name,
                               "start_ns": start, "end_ns": end, **attrs})

    def patch(self, owner, attr: str, name: str,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr`` in a span; ``before(*args, **kw)`` and
        ``after(result, *args, **kw)`` return extra span attributes."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            extra = before(*args, **kwargs) if before else {}
            with tracer.span(name, **extra) as attrs:
                result = original(*args, **kwargs)
                if after is not None:
                    attrs.update(after(result, *args, **kwargs))
                return result
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def instrument(self, sim, mode: str) -> None:
        """Shadow every component's hooks with counting wrappers."""
        for component in sim.components:
            key = (mode, self.layer_of(component))
            acc = self.layers.setdefault(key, [0, 0, 0, 0])
            for hook, ns_slot, count_slot in HOOKS:
                component.__dict__[hook] = _timed(
                    getattr(component, hook), acc, ns_slot, count_slot)
            self._instances.append(component)

    def component_ns(self, modes) -> int:
        return sum(acc[0] + acc[2] for (mode, __), acc in self.layers.items()
                   if mode in modes)

    # ------------------------------------------------------------------

    def close(self) -> List[str]:
        """Remove every wrapper; returns what could not be restored."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        for component in self._instances:
            for hook, __, __ in HOOKS:
                component.__dict__.pop(hook, None)
        leftovers = [f"{owner!r}.{attr}"
                     for owner, attr, original in self._patched
                     if getattr(owner, attr) is not original]
        leftovers += [f"{component.name}.{hook}"
                      for component in self._instances
                      for hook, __, __ in HOOKS
                      if hook in component.__dict__]
        self._patched.clear()
        self._instances.clear()
        return leftovers

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        layers = {f"{mode}/{layer}": {"tick_ns": acc[0], "ticks": acc[1],
                                      "poll_ns": acc[2], "polls": acc[3]}
                  for (mode, layer), acc in sorted(self.layers.items())}
        path.write_text(json.dumps({"run": self.run_id, **extra,
                                    "layers": layers,
                                    "spans": self.spans}, indent=1),
                        encoding="utf-8")

    # ------------------------------------------------------------------

    def total_s(self, name: str, where: Optional[Callable] = None) -> float:
        return sum(span["end_ns"] - span["start_ns"] for span in self.spans
                   if span["name"] == name and (where is None
                                                or where(span))) / 1e9

    def count(self, name: str) -> int:
        return sum(1 for span in self.spans if span["name"] == name)

    def by_id(self) -> Dict[int, dict]:
        return {span["id"]: span for span in self.spans}
