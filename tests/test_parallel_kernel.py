"""Tests for the sharded parallel tick engine (``repro.sim.parallel``).

The contract under test is absolute: ``Simulator(parallel=N)`` must
produce byte-identical results to the serial reference kernel on every
workload — the sharding, the stage barriers, and the deferred wake
replay are pure scheduling, never semantics.  The fine-grained
fingerprint sweep lives in ``tests/test_kernel_equivalence.py`` and the
corpus replay in ``tests/test_verify_corpus.py``; this module covers
the engine's own machinery: fallback, backends, backend selection,
skip accounting, lifecycle, and the ``run_until`` stop-cycle guarantee.
"""

import pytest

from repro.masters import AxiDma
from repro.platforms import ZCU102
from repro.sim import ParallelEngine, Simulator
from repro.sim import parallel as parallel_mod
from repro.sim.errors import SimulationError
from repro.sim.kernel import PARALLEL_BACKENDS
from repro.system import SocSystem


def build_loaded_soc(n_ports=2, parallel=0, backend=None):
    soc = SocSystem.build(ZCU102, n_ports=n_ports, period=2048,
                          parallel=parallel)
    if backend is not None:
        soc.sim.parallel_backend = backend
    dmas = [AxiDma(soc.sim, f"dma{p}", soc.port(p))
            for p in range(n_ports)]
    for port, dma in enumerate(dmas):
        base = 0x100_0000 * (port + 1)
        dma.enqueue_copy(base, base + 0x800_0000, 1024)
        dma.enqueue_read(base + 0x10_0000, 512)
    return soc, dmas


def signature(soc, dmas):
    return (soc.sim.now,
            tuple((d.bytes_read, d.bytes_written, len(d.jobs_completed),
                   d.error_responses) for d in dmas))


def run_and_sign(n_ports=2, parallel=0, backend=None, cycles=12_000):
    soc, dmas = build_loaded_soc(n_ports, parallel, backend)
    soc.sim.run(cycles)
    return signature(soc, dmas), soc


class TestByteIdentity:
    def test_inline_backend_matches_reference(self):
        ref, __ = run_and_sign(parallel=0)
        par, __ = run_and_sign(parallel=2, backend="inline")
        assert par == ref

    def test_threads_backend_matches_reference(self):
        ref, __ = run_and_sign(parallel=0)
        par, soc = run_and_sign(parallel=3, backend="threads")
        assert par == ref
        soc.sim.finish()

    def test_worker_count_is_immaterial(self):
        baseline, __ = run_and_sign(n_ports=4, parallel=2,
                                    backend="inline")
        for workers in (3, 4, 8):
            sig, __ = run_and_sign(n_ports=4, parallel=workers,
                                   backend="inline")
            assert sig == baseline

    def test_split_runs_match_one_run(self):
        soc_a, dmas_a = build_loaded_soc(parallel=2, backend="inline")
        soc_a.sim.run(12_000)
        soc_b, dmas_b = build_loaded_soc(parallel=2, backend="inline")
        for __ in range(6):
            soc_b.sim.run(2_000)
        assert signature(soc_a, dmas_a) == signature(soc_b, dmas_b)


class TestFallback:
    def test_single_port_falls_back_to_fast_path(self):
        """One port means one shard: not worth a stage schedule.  The
        engine must detect that and delegate to the quiescence fast
        path, still byte-identical to the reference."""
        ref, __ = run_and_sign(n_ports=1, parallel=0)
        par, soc = run_and_sign(n_ports=1, parallel=2, backend="inline")
        assert par == ref
        plan = soc.sim.parallel_plan
        assert plan is not None and not plan.parallelizable

    def test_parallel_implies_fast(self):
        sim = Simulator("t", clock_hz=ZCU102.pl_clock_hz, parallel=2)
        assert sim.fast


class TestRunUntil:
    def test_predicate_stops_on_same_cycle(self):
        """ISSUE satellite: ``run_until`` must honor its predicate at
        the same cycle under the parallel engine as under the serial
        reference — stage barriers may not overrun the sample points."""
        stops = {}
        for label, parallel in (("serial", 0), ("parallel", 2)):
            soc, dmas = build_loaded_soc(parallel=parallel,
                                         backend="inline" if parallel
                                         else None)
            elapsed = soc.sim.run_until(
                lambda: all(len(d.jobs_completed) >= 2 for d in dmas),
                max_cycles=200_000)
            stops[label] = (elapsed, soc.sim.now)
        assert stops["parallel"] == stops["serial"]

    def test_coarse_stride_stops_on_same_boundary(self):
        stops = {}
        for label, parallel in (("serial", 0), ("parallel", 2)):
            soc, dmas = build_loaded_soc(parallel=parallel,
                                         backend="inline" if parallel
                                         else None)
            elapsed = soc.sim.run_until(
                lambda: all(len(d.jobs_completed) >= 2 for d in dmas),
                max_cycles=200_000, check_every=64)
            stops[label] = (elapsed, soc.sim.now)
        assert stops["parallel"] == stops["serial"]

    def test_timeout_still_raises(self):
        soc, __ = build_loaded_soc(parallel=2, backend="inline")
        with pytest.raises(SimulationError):
            soc.sim.run_until(lambda: False, max_cycles=500)


class TestSkipAccounting:
    def test_group_counters_fold_into_skip_stats(self):
        __, soc = run_and_sign(n_ports=2, parallel=2, backend="inline")
        stats = soc.sim.skip_stats
        assert stats.cycles_total == soc.sim.now
        assert stats.cycles_polled + stats.cycles_frozen == soc.sim.now
        assert stats.ticks_run > 0

    def test_sleeping_shards_accumulate_slept_ticks(self):
        __, soc = run_and_sign(n_ports=2, parallel=2, backend="inline",
                               cycles=40_000)
        # the post-drain tail must not be ticked
        assert soc.sim.skip_stats.ticks_slept > 0

    def test_serial_sim_reports_no_backend(self):
        __, soc = run_and_sign(parallel=0)
        assert soc.sim.skip_stats.resolved_backend is None
        assert soc.sim.parallel_plan is None


class TestLifecycleAndValidation:
    def test_negative_worker_count_rejected(self):
        with pytest.raises(SimulationError):
            Simulator("t", clock_hz=ZCU102.pl_clock_hz, parallel=-1)

    def test_zero_workers_rejected_by_engine(self):
        sim = Simulator("t", clock_hz=ZCU102.pl_clock_hz)
        with pytest.raises(SimulationError):
            ParallelEngine(sim, 0)

    def test_unknown_backend_rejected(self):
        sim = Simulator("t", clock_hz=ZCU102.pl_clock_hz)
        choices = "expected one of: inline, threads"
        for backend in ("auto", "fibers", "processes"):
            with pytest.raises(SimulationError, match=choices):
                ParallelEngine(sim, 2, backend=backend)
            with pytest.raises(SimulationError, match=choices):
                SocSystem.build(ZCU102, parallel=2,
                                parallel_backend=backend)

    def test_finish_closes_worker_pool(self):
        __, soc = run_and_sign(parallel=2, backend="threads")
        engine = soc.sim._parallel_engine
        assert engine is not None
        soc.sim.finish()
        assert engine._executor is None
        engine.close()   # idempotent

    def test_plan_exposed_after_first_advance(self):
        soc, __ = build_loaded_soc(parallel=2, backend="inline")
        assert soc.sim.parallel_plan is None   # engine is lazy
        soc.sim.run(10)
        plan = soc.sim.parallel_plan
        assert plan is not None and plan.parallelizable


class TestResolution:
    def test_default_backend_is_inline(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("inline backend created a thread pool")

        monkeypatch.setattr(parallel_mod, "ThreadPoolExecutor", no_pool)
        assert PARALLEL_BACKENDS[0] == "inline"
        __, soc = run_and_sign(parallel=3)
        engine = soc.sim._parallel_engine
        assert engine.backend == "inline"
        assert engine._executor is None
        assert soc.sim.skip_stats.resolved_backend == "inline"

    @pytest.mark.parametrize("backend", ["inline", "threads"])
    def test_requested_backend_is_reported(self, backend):
        __, soc = run_and_sign(parallel=2, backend=backend)
        assert soc.sim.skip_stats.resolved_backend == backend
        assert soc.sim.skip_stats.as_dict()["resolved_backend"] == backend
        soc.sim.finish()

    def test_unknown_backend_still_rejected(self):
        with pytest.raises(SimulationError):
            soc, __ = build_loaded_soc(parallel=2, backend="fibers")
            soc.sim.run(64)
