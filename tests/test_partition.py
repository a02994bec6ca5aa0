"""Unit tests for the shard partitioner (``repro.sim.partition``).

The partitioner must carve the HyperConnect wiring into per-port
pipelines plus a serial hub, and — more importantly — must *refuse* to
parallelize whenever the wiring proves two ports are not independent
(shared tracers, foreign completion callbacks, affinity without a
declared channel footprint).
"""

import pytest

from repro.masters import AxiDma
from repro.platforms import ZCU102
from repro.sim import Simulator, Tracer, build_plan
from repro.system import SocSystem


def plan_for(soc):
    soc.sim._rebuild_wiring()
    return build_plan(soc.sim)


def width(plan):
    """Largest group count of any parallel stage."""
    return max((len(stage.groups) for stage in plan.stages
                if stage.kind == "parallel"), default=0)


def build_hc(n_ports=2, with_dmas=True, parallel=0):
    soc = SocSystem.build(ZCU102, interconnect="hyperconnect",
                          n_ports=n_ports, parallel=parallel)
    dmas = []
    if with_dmas:
        dmas = [AxiDma(soc.sim, f"dma{p}", soc.port(p))
                for p in range(n_ports)]
    return soc, dmas


class TestHyperConnectPlan:
    def test_per_port_shards(self):
        soc, dmas = build_hc(n_ports=3)
        plan = plan_for(soc)
        assert plan.parallelizable
        assert width(plan) == 3
        assert len(plan.shard_keys) == 3
        # each port's TS and its engine share the port's shard
        for port, dma in enumerate(dmas):
            ts = soc.interconnect.supervisors[port]
            assert plan.component_keys[ts] is not None
            assert plan.component_keys[ts] == plan.component_keys[dma]

    def test_hub_holds_shared_machinery(self):
        soc, __ = build_hc()
        plan = plan_for(soc)
        hub = [comp for comp, key in plan.component_keys.items()
               if key is None]
        hub_types = {type(comp).__name__ for comp in hub}
        assert "Exbar" in hub_types
        assert "CentralUnit" in hub_types
        assert "MemorySubsystem" in hub_types

    def test_stage_schedule_alternates(self):
        soc, __ = build_hc()
        plan = plan_for(soc)
        kinds = [stage.kind for stage in plan.stages]
        assert "parallel" in kinds and "hub" in kinds
        for earlier, later in zip(plan.stages, plan.stages[1:]):
            assert earlier.kind != later.kind        # maximal runs
            assert earlier.end == later.start        # contiguous

    def test_stage_indices_cover_registration_order(self):
        soc, __ = build_hc()
        plan = plan_for(soc)
        seen = []
        for stage in plan.stages:
            if stage.kind == "hub":
                seen.extend(idx for idx, __ in stage.members)
            else:
                for members in stage.groups.values():
                    seen.extend(idx for idx, __ in members)
        assert sorted(seen) == list(range(len(soc.sim._components)))


class TestMergesAndDemotions:
    def test_shared_tracer_merges_ports(self):
        """A tracer attached to both ports' channels would interleave
        its event list nondeterministically — the ports must merge."""
        soc, __ = build_hc()
        tracer = Tracer(limit=None)
        tracer.attach_channel(soc.port(0).ar, "p0.AR")
        tracer.attach_channel(soc.port(1).ar, "p1.AR")
        plan = plan_for(soc)
        assert width(plan) < 2
        assert not plan.parallelizable

    def test_single_port_tracer_keeps_plan_parallel(self):
        soc, __ = build_hc()
        tracer = Tracer(limit=None)
        tracer.attach_channel(soc.port(0).ar, "p0.AR")
        plan = plan_for(soc)
        assert plan.parallelizable

    def test_foreign_completion_callback_demotes_engine(self):
        """The hypervisor's interrupt bridge mutates hypervisor state
        from inside the engine's tick — the engine must run serially."""
        from repro.hypervisor import Hypervisor

        soc, dmas = build_hc()
        hypervisor = Hypervisor(soc.interconnect)
        guest = hypervisor.create_domain("guest")
        guest.ports.append(0)
        hypervisor.attach_accelerator("guest", 0, dmas[0])
        plan = plan_for(soc)
        assert plan.component_keys[dmas[0]] is None
        assert dmas[0].name in plan.demotions
        assert "foreign" in plan.demotions[dmas[0].name]

    def test_affinity_without_wake_channels_demotes(self):
        sim = Simulator("t", clock_hz=ZCU102.pl_clock_hz)
        from repro.sim import Component

        class Opaque(Component):
            def tick(self, cycle):
                pass

            def shard_affinity(self):
                return "mystery"

        comp = Opaque(sim, "opaque")
        sim._rebuild_wiring()
        plan = build_plan(sim)
        assert plan.component_keys[comp] is None
        assert "opaque" in plan.demotions
        assert "wake_channels" in plan.demotions["opaque"]

    def test_trivial_topology_not_parallelizable(self):
        soc, __ = build_hc(n_ports=1)
        plan = plan_for(soc)
        assert not plan.parallelizable
        assert width(plan) <= 1


class TestPlanLifecycle:
    def test_plan_rebuilt_after_late_listener_attach(self):
        """Attaching a listener after the first plan must force a
        re-plan: the partitioner's merge decisions read the listener
        lists, so a cross-port tracer attached mid-run would otherwise
        run against a stale (and now unsound) plan."""
        soc, __ = build_hc(parallel=2)
        soc.sim.run(100)
        assert soc.sim.parallel_plan.parallelizable
        tracer = Tracer(limit=None)
        tracer.attach_channel(soc.port(0).ar, "p0.AR")
        tracer.attach_channel(soc.port(1).ar, "p1.AR")
        soc.sim.run(100)
        assert not soc.sim.parallel_plan.parallelizable

    def test_plan_rebuilt_after_late_registration(self):
        soc, __ = build_hc(parallel=2)
        soc.sim.run(100)
        first = soc.sim.parallel_plan
        assert first is not None
        AxiDma(soc.sim, "late", soc.port(1))   # marks wiring stale
        soc.sim.run(100)
        second = soc.sim.parallel_plan
        assert second is not first
        assert second.parallelizable
