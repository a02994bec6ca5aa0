"""Tests for the transaction-level fast-forward engine (repro.sim.tlm).

Three properties anchor the suite:

* **engagement** — the canonical steady-state workload (reserved
  CHaiDNN + greedy DMA under a committed schedule) actually commits
  epochs and skips most of the window;
* **exactness of the decline path** — every window the engine declines
  runs byte-identically to ``fast=True``, proven both on fault/churn
  scenarios (which always decline) and via the forced-mispredict hook,
  which rolls *every* speculation back and replays it cycle-accurately;
* **bounded fidelity of the commit path** — committed epochs preserve
  rates and byte totals within the analytic bounds the ``tlm`` oracle
  checks.
"""

import pytest

from repro.masters import AxiDma, DmaDescriptor
from repro.masters.chaidnn import ChaiDnnAccelerator
from repro.platforms import ZCU102
from repro.sim import Simulator
from repro.sim.errors import SimulationError
from repro.sim.tlm import TlmEngine
from repro.system import SocSystem, run_case_study
from repro.verify import build_system, run_scenario, run_system
from repro.verify.oracles import check_tlm, evaluate_scenario
from repro.verify.paramspace import compile_faults, compile_isolation, \
    compile_reservation

WINDOW = 100_000
PERIOD = 2048


def build_contended_soc(tlm: bool):
    """The case-study shape: reserved CHaiDNN vs a greedy 64-beat DMA."""
    soc = SocSystem.build(ZCU102, n_ports=2, period=PERIOD,
                          fast=not tlm, tlm=tlm)
    chai = ChaiDnnAccelerator(soc.sim, "chai", soc.port(0), scale=1 / 64)
    chai.start()
    dma = AxiDma(soc.sim, "dma", soc.port(1), burst_len=64)
    dma.program([DmaDescriptor("read", 0x1000_0000, 65536),
                 DmaDescriptor("write", 0x2000_0000, 65536)], repeat=True)
    dma.start()
    soc.driver.set_bandwidth_shares({0: 0.5, 1: 0.5})
    return soc, chai, dma


def state_fingerprint(soc, chai, dma):
    """Every deterministic observable a replayed window must reproduce."""
    sups = soc.interconnect.supervisors
    return (
        soc.sim.now,
        chai.frames_completed, chai.bytes_read, chai.bytes_written,
        len(chai.jobs_completed), chai.error_responses,
        dma.rounds_completed, dma.bytes_read, dma.bytes_written,
        len(dma.jobs_completed), dma.error_responses,
        tuple(tuple(sorted(s.fault_stats.as_dict().items()))
              for s in sups),
        tuple((s.outstanding_reads, s.outstanding_writes) for s in sups),
        soc.memory.reads_served, soc.memory.writes_served,
        round(chai.job_latency.mean, 9), round(dma.job_latency.mean, 9),
    )


class TestModeSelection:
    def test_tlm_implies_fast(self):
        sim = Simulator("t", tlm=True)
        assert sim.tlm and sim.fast

    def test_tlm_rejects_parallel(self):
        with pytest.raises(SimulationError):
            Simulator("t", tlm=True, parallel=2)

    def test_builder_ignores_mode_env_vars(self, monkeypatch):
        """Engines are chosen by argument only: the retired mode
        variables must not switch a default build over."""
        monkeypatch.setenv("REPRO_TLM", "1")
        monkeypatch.setenv("REPRO_PARALLEL", "1")
        monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "threads")
        sim = SocSystem.build(ZCU102).sim
        assert sim.tlm is False
        assert sim.parallel == 0
        assert sim.parallel_backend == "inline"


class TestEngagement:
    def test_commits_epochs_on_steady_reservation_traffic(self):
        soc, chai, dma = build_contended_soc(tlm=True)
        soc.sim.run(WINDOW)
        stats = soc.sim.skip_stats
        assert stats.tlm_epochs > 0
        # the analytic fast-forward should dominate the window: every
        # reservation period contributes one epoch minus the resync tail
        assert stats.tlm_cycles_skipped > WINDOW // 2
        assert chai.frames_completed > 0
        assert dma.rounds_completed > 0

    def test_case_study_surfaces_skip_stats(self):
        result = run_case_study("hyperconnect", shares={0: 0.5, 1: 0.5},
                                scale=1 / 64, window_cycles=WINDOW,
                                tlm=True)
        assert result.skip_stats is not None
        assert result.skip_stats["tlm_epochs"] > 0
        assert result.skip_stats["tlm_cycles_skipped"] > 0

    def test_rate_fidelity_vs_fast(self):
        fast = run_case_study("hyperconnect", shares={0: 0.5, 1: 0.5},
                              scale=1 / 64, window_cycles=WINDOW,
                              fast=True)
        tlm = run_case_study("hyperconnect", shares={0: 0.5, 1: 0.5},
                             scale=1 / 64, window_cycles=WINDOW,
                             tlm=True)
        assert tlm.skip_stats["tlm_epochs"] > 0
        assert tlm.chaidnn_fps == pytest.approx(fast.chaidnn_fps,
                                                rel=0.30)
        assert tlm.dma_rate == pytest.approx(fast.dma_rate, rel=0.30)

    def test_execution_resumes_cleanly_after_fastforward(self):
        """Cycle-accurate execution after the window picks up seamlessly."""
        soc, chai, __ = build_contended_soc(tlm=True)
        soc.sim.run(WINDOW)
        frames = chai.frames_completed
        soc.sim.tlm = False          # demote permanently: pure fast path
        soc.sim.run(WINDOW // 2)
        assert chai.frames_completed > frames


class TestRollback:
    def test_forced_mispredict_replays_byte_identically(self):
        """Every speculation rolled back == the plain fast kernel.

        With ``_force_mispredict_after = 1`` each attempted epoch is
        speculated, fully accounted, then rolled back and replayed
        cycle-accurately — so the whole run must reproduce ``fast=True``
        exactly, including statistics means and supervisor counters.
        """
        reference_soc, ref_chai, ref_dma = build_contended_soc(tlm=False)
        reference_soc.sim.run(WINDOW)

        soc, chai, dma = build_contended_soc(tlm=True)
        engine = TlmEngine(soc.sim)
        engine._force_mispredict_after = 1
        soc.sim._tlm_engine = engine
        soc.sim.run(WINDOW)

        assert soc.sim.skip_stats.tlm_epochs == 0
        assert soc.sim.skip_stats.tlm_rollbacks > 0
        assert soc.sim.skip_stats.tlm_demotions.get(
            "mispredict:forced", 0) > 0
        assert (state_fingerprint(soc, chai, dma)
                == state_fingerprint(reference_soc, ref_chai, ref_dma))


class TestDeclinePath:
    def test_fault_scenarios_decline_and_stay_identical(self):
        scenario = compile_faults({"program": "hung_r", "n_ports": 2,
                                   "timeout": 400, "hang": 8})
        reference = run_scenario(scenario, fast=True)
        system = build_system(scenario, fast=True, tlm=True)
        candidate = run_system(system)
        assert candidate.tlm_epochs == 0
        assert system.sim.skip_stats.tlm_demotions  # reasons recorded
        assert candidate.fingerprint == reference.fingerprint

    def test_churn_scenarios_decline_and_stay_identical(self):
        scenario = compile_isolation({"n_domains": 4, "n_faulted": 0,
                                      "churn": "regrant",
                                      "churn_cycle": 64})
        reference = run_scenario(scenario, fast=True)
        candidate = run_scenario(scenario, fast=True, tlm=True)
        assert candidate.tlm_epochs == 0
        assert candidate.fingerprint == reference.fingerprint


class TestOracle:
    def test_tlm_check_passes_on_reservation_scenario(self):
        scenario = compile_reservation({"share0": 0.5, "period": 2048,
                                        "job_bytes": 16384})
        evaluate_scenario(scenario, checks=("tlm",), parallel=0)

    def test_tlm_check_flags_fabricated_overrun(self):
        """A TLM result violating the bus-capacity bound must be caught."""
        from dataclasses import replace

        from repro.verify.oracles import OracleViolation

        scenario = compile_reservation({"share0": 0.5, "period": 2048,
                                        "job_bytes": 16384})
        reference = run_scenario(scenario, fast=False)
        candidate = run_scenario(scenario, fast=True, tlm=True)
        assert candidate.tlm_epochs > 0  # this grid point fast-forwards
        check_tlm(scenario, reference, candidate)   # honest result: ok
        forged = tuple(dict(info, bytes_read=10 ** 12)
                       for info in candidate.engines)
        with pytest.raises(OracleViolation):
            check_tlm(scenario, reference,
                      replace(candidate, engines=forged))

    def test_unknown_check_still_rejected(self):
        scenario = compile_reservation({"share0": 0.5})
        with pytest.raises(ValueError):
            evaluate_scenario(scenario, checks=("bogus",))

    def test_campaign_config_accepts_tlm(self):
        from repro.verify import CampaignConfig

        CampaignConfig(checks=("equivalence", "tlm"))

    def test_tlm_composite_grid_registered(self):
        from repro.verify.paramspace import grid_scenarios

        scenarios, checks = grid_scenarios("tlm", limit=4)
        assert scenarios
        assert "tlm" in checks
