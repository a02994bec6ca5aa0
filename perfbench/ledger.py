"""The benchmark's metric ledger: names, units, directions and what moves what.

``BENCHMARK.json`` at the repository root carries the subset of this
table its fixed format allows (name/unit/better/bound, the workload
``why`` sentences).  This module is the self-describing side:
for every per-layer metric it records the layer (a module of
``src/repro``) and the end-to-end metric and workload it should move,
so later changes can cite a ledger row by name.  ``selfcheck.py``
asserts that this table, ``BENCHMARK.json`` and the emitted results all
name the same metrics.
"""

from __future__ import annotations

WORKLOADS = (
    ("fig5_saturated",
     "the paper's Fig. 5 HC-50-50 row: a beat moves every cycle, so fast "
     "skipping is bypassed and TLM engages; per-cycle cost and TLM drift "
     "both show"),
    ("bursty8_copy",
     "8 DMAs copy a seeded burst then idle (~86% of cycles frozen): "
     "sleep/wake and horizon skipping do the work, TLM declines every "
     "epoch"),
    ("campaign_faults_churn",
     "the verification user's path: faults + churn grids through "
     "run_campaign(workers=1); harness builds, oracles, containment and "
     "revocation carry the load"),
)

# (name, unit, better, bound, definition); host times are calibrated
# seconds: each timed interval scaled by the reference loop sampled
# around it to the nominal host (hostspeed.py); raw figures are printed
# beside them
END_TO_END = (
    ("ref_cycles_per_s", "cycles/s", "higher", 0.25,
     "simulated cycles per calibrated host second, warm, build excluded, "
     "fast=False; median over timed runs of 20k-cycle Fig. 5 chunks or "
     "30k-cycle bursty windows; on the campaign, over its scenarios' "
     "reference runs"),
    ("fast_cycles_per_s", "cycles/s", "higher", 0.25,
     "same, fast=True"),
    ("tlm_cycles_per_s", "cycles/s", "higher", 0.25,
     "same, tlm=True"),
    ("tlm_bytes_ratio", "x", "lower", 0.02,
     "max over ports of max(TLM/fast, fast/TLM) engine bytes at the same "
     "window; 1 = exact (tlm_bytes_err_pct = 100 * (ratio - 1)); "
     "deterministic"),
    ("scenarios_per_s", "1/s", "higher", 0.25,
     "checked scenarios per calibrated host second: campaign records "
     "through the oracle stack, or one input run in every mode and "
     "cross-checked"),
    ("scenario_ms_p50", "ms", "lower", 0.25,
     "median calibrated host ms of one checked scenario (campaign "
     "elapsed_ms, each scenario's median over the run's passes)"),
    ("scenario_ms_tail", "ms", "lower", 0.25,
     "highest percentile with >= 10 checked scenarios beyond it (the "
     "maximum when fewer than 21 ran); percentile and count are printed"),
    ("setup_s", "s", "lower", 0.25,
     "fresh-process import + build before the first timed cycle or "
     "scenario, calibrated, median of several fresh processes"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident memory of the workload process"),
    ("success_pct", "%", "higher", 0.001,
     "100 * (1 - error_rate); an op is one mode run, one scenario or "
     "one check"),
)

#: component classes -> layer, checked in order (first isinstance wins)
COMPONENT_LAYERS = (
    "hyperconnect.supervisor",
    "hyperconnect.exbar",
    "hyperconnect.central",
    "hyperconnect.efifo",
    "memory.dram",
    "masters.engine",
    "hypervisor.recovery",
    "other",
)

#: TLM decline/demotion reasons reported by name; the rest fold into
#: ``tlm.demotions.other``
DEMOTION_REASONS = ("copy", "idle", "fault", "watchdog", "revocation",
                    "topology", "memory", "memory-store", "short-period",
                    "region-filter", "recharge-due")

MODEL_PORTS = 8

_FIG5 = "fig5_saturated"
_BURSTY = "bursty8_copy"
_CAMPAIGN = "campaign_faults_churn"


def _per_layer():
    rows = []

    def add(name, unit, better, layer, moves):
        rows.append((name, unit, better, layer, moves))

    kernel_fast = f"fast_cycles_per_s on {_FIG5} (every cycle polled) far " \
                  f"more than on {_BURSTY}"
    add("kernel.cycles_polled", "cycles", "lower", "sim.kernel", kernel_fast)
    add("kernel.cycles_frozen", "cycles", "higher", "sim.kernel",
        kernel_fast)
    add("kernel.ticks_run", "count", "lower", "sim.kernel", kernel_fast)
    add("kernel.ticks_skipped", "count", "higher", "sim.kernel",
        kernel_fast)
    add("kernel.ticks_slept", "count", "higher", "sim.kernel", kernel_fast)
    add("kernel.work_avoided_fraction", "ratio", "higher", "sim.kernel",
        kernel_fast)
    add("kernel.ns_per_polled_cycle", "ns", "lower", "sim.kernel",
        kernel_fast)
    add("kernel.self_s", "s", "lower", "sim.kernel",
        f"ref_cycles_per_s and fast_cycles_per_s on {_FIG5}")
    add("kernel.fast_over_ref", "x", "higher", "sim.kernel", kernel_fast)
    commit = f"ref_cycles_per_s and fast_cycles_per_s on {_FIG5}"
    add("commit.batches", "count", "lower", "sim.commit", commit)
    add("commit.channels", "count", "lower", "sim.channel", commit)
    add("commit.channels_per_batch", "count", "lower", "sim.commit", commit)
    heap = f"fast_cycles_per_s on {_BURSTY}; hardly fast_cycles_per_s on " \
           f"{_FIG5}"
    add("wakeheap.pushes", "count", "lower", "sim.wakeheap", heap)
    add("wakeheap.pops", "count", "lower", "sim.wakeheap", heap)
    add("kernel.horizon_scans", "count", "lower", "sim.wakeheap", heap)
    for layer in COMPONENT_LAYERS:
        moves = f"the *_cycles_per_s metrics on {_FIG5}"
        add(f"{layer}.tick_s", "s", "lower", layer, moves)
        add(f"{layer}.ticks", "count", "lower", layer, moves)
        add(f"{layer}.poll_s", "s", "lower", layer, moves)
    model = f"attributes tlm_bytes_ratio on {_FIG5}"
    for prefix in ("model", "model.tlm"):
        for port in range(MODEL_PORTS):
            add(f"{prefix}.port{port}.bytes", "bytes", "higher",
                "masters.engine", model)
            add(f"{prefix}.port{port}.stalled_on_budget", "cycles",
                "lower", "hyperconnect.supervisor", model)
        add(f"{prefix}.exbar.grants_ar", "count", "higher",
            "hyperconnect.exbar", model)
        add(f"{prefix}.exbar.grants_aw", "count", "higher",
            "hyperconnect.exbar", model)
        add(f"{prefix}.dram.beats_served", "count", "higher", "memory.dram",
            model)
        add(f"{prefix}.bytes_unserved_pct", "%", "lower", "memory.dram",
            model)
    tlm = f"tlm_cycles_per_s on {_FIG5} (engaged) and {_BURSTY} " \
          f"(declined), and tlm_bytes_ratio"
    add("tlm.epochs", "count", "higher", "sim.tlm", tlm)
    add("tlm.skipped_fraction", "ratio", "higher", "sim.tlm", tlm)
    add("tlm.rollbacks", "count", "lower", "sim.tlm", tlm)
    add("tlm.speedup_over_fast", "x", "higher", "sim.tlm", tlm)
    add("tlm.decline_overhead_pct", "%", "lower", "sim.tlm", tlm)
    add("tlm.self_s", "s", "lower", "sim.tlm", tlm)
    for reason in DEMOTION_REASONS + ("other",):
        add(f"tlm.demotions.{reason}", "count", "lower", "sim.tlm", tlm)
    parallel = "no end-to-end metric: no default mode or campaign leg " \
               "routes to the sharded engine"
    add("parallel.inline_over_fast", "x", "higher", "sim.parallel",
        parallel)
    add("parallel.threads_over_fast", "x", "higher", "sim.parallel",
        parallel)
    add("parallel.resolved_backend_code", "code", "higher", "sim.parallel",
        parallel)
    verify = f"scenarios_per_s and scenario_ms_p50 on {_CAMPAIGN}"
    add("verify.build_s", "s", "lower", "verify.harness", verify)
    add("verify.run_s.reference", "s", "lower", "verify.harness", verify)
    add("verify.run_s.fast", "s", "lower", "verify.harness", verify)
    add("verify.run_s.twin", "s", "lower", "verify.harness", verify)
    add("verify.oracle_s", "s", "lower", "verify.oracles", verify)
    add("verify.legs_per_scenario", "count", "lower", "verify.oracles",
        verify)
    add("verify.cycles_per_scenario", "cycles", "lower", "verify.harness",
        verify)
    add("campaign.overhead_s", "s", "lower", "verify.campaign", verify)
    tail = f"scenario_ms_tail on {_CAMPAIGN}"
    add("supervisor.watchdog_trips", "count", "lower",
        "hyperconnect.supervisor", tail)
    add("supervisor.protocol_trips", "count", "lower",
        "hyperconnect.supervisor", tail)
    add("hypervisor.revocations", "count", "lower", "hypervisor.recovery",
        tail)
    add("builder.build_s", "s", "lower", "system.builder",
        "setup_s on every workload")
    add("trace.overhead_x", "x", "lower", "benchmark tracer",
        "none: traced wall time / untraced wall time of the same unit")
    return tuple(rows)


# (name, unit, better, layer, moves)
PER_LAYER = _per_layer()

#: parallel.resolved_backend_code values
BACKEND_CODES = {None: 0, "inline": 1, "threads": 2, "processes": 3}
