"""Measurement and tracing of the three workloads (see ``ledger.py``).

``measure_*`` time units of work until the run's seconds are spent and
return the end-to-end metrics, every host time in them calibrated to
the nominal host (``hostspeed.py``); ``trace_*`` run one untraced and one
traced unit and return the per-layer metrics.  Every mode run, scenario
and check is an operation recorded in :class:`Ops`.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path

import ledger
import workloads as wl
from hostspeed import calibrated
from layertrace import LayerTracer
from repro.sim.tlm import TlmEngine
from repro.verify import build_system, campaign, fingerprint_digest, \
    harness, oracles, run_system

RATE_METRIC = {"reference": "ref_cycles_per_s",
               "fast": "fast_cycles_per_s",
               "tlm": "tlm_cycles_per_s"}


class Ops:
    """Attempted and failed operations (mode runs, scenarios, checks)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list = []

    def record(self, name: str, error) -> None:
        self.attempted += 1
        if error:
            self.failures.append(f"{name}: {error}")


def tail_rank(n: int) -> tuple:
    """(index into n sorted samples, percentile, count beyond) of the
    highest percentile with at least ten samples beyond it, or of the
    maximum when that percentile would not lie above the median (fewer
    than 21 samples)."""
    if n < 21:
        return n - 1, 100.0, 0
    return n - 11, 100.0 * (n - 10) / n, 10


def timing_metrics(op_ms: list, per_s: float) -> dict:
    index, pct, beyond = tail_rank(len(op_ms))
    print(f"info scenario_ms_tail = p{pct:.1f} of {len(op_ms)} "
          f"({beyond} beyond)")
    return {"scenarios_per_s": per_s,
            "scenario_ms_p50": statistics.median(op_ms),
            "scenario_ms_tail": sorted(op_ms)[index]}


def print_tlm_err(ratio: float) -> None:
    print(f"info tlm_bytes_err_pct = {100.0 * (ratio - 1.0)} %")


# ----------------------------------------------------------------------
# fabric workloads: fig5_saturated, bursty8_copy
# ----------------------------------------------------------------------

def fabric_pin(workload: str, seed: int, tiny: bool, pins: dict):
    if tiny:
        return None
    if workload == "fig5_saturated":
        return pins[workload]["signature"]
    return pins[workload].get(str(seed))


def run_unit(workload, seed, size, ops, pin, repeats=None, tracer=None,
             tag="", host=None) -> dict:
    """One checked scenario: ``repeats[mode]`` legs per mode (default
    one), each compared with the reference; failed legs are left out."""
    legs = {mode: [] for mode in wl.MODES}
    for mode in wl.MODES:
        for __ in range(1 if repeats is None else repeats[mode]):
            try:
                legs[mode].append(wl.run_leg(workload, mode, seed, size,
                                             tracer=tracer, host=host))
            except Exception as error:   # noqa: BLE001 - counted as failed
                ops.record(f"{tag}{mode}",
                           f"{type(error).__name__}: {error}")
    ref = legs["reference"][0] if legs["reference"] else None
    if ref is not None:
        error = None
        if pin is not None and ref.signature != pin:
            error = f"signature {ref.signature} != pinned {pin}"
        elif workload == "bursty8_copy":
            jobs = wl.BURSTY_JOBS * size["bursty_windows"]
            if any(port[2] != jobs for port in ref.signature[0]):
                error = f"jobs left unfinished: {ref.signature}"
        ops.record(f"{tag}reference", error)
    for fast in legs["fast"]:
        error = None
        if ref is None or fast.signature != ref.signature:
            error = f"fast {fast.signature} != reference " \
                    f"{None if ref is None else ref.signature}"
        ops.record(f"{tag}fast", error)
    for tlm in legs["tlm"]:
        error = None
        if not wl.tlm_progress(tlm) or any(
                wl.tlm_ratio(fast, tlm) is None for fast in legs["fast"]):
            error = f"no progress: {tlm.signature}"
        elif tlm.signature != legs["tlm"][0].signature:
            error = "TLM legs of one input differ"
        ops.record(f"{tag}tlm", error)
    return legs


def warm_up(workload: str, seed: int, size: dict) -> None:
    """Untimed short run per mode: lazy imports and first-call costs."""
    short = dict(size, fig5_window=min(5_000, size["fig5_window"]))
    for mode in wl.MODES:
        rig = wl.build_rig(workload, mode, seed, short)
        wl.drive(rig, short, limit=None if rig.plan is None else 1)


def measure_fabric(workload, seed, seconds, size, ops, pin, host) -> dict:
    warm_up(workload, seed, size)
    units = []
    began = time.perf_counter()
    while True:
        unit_began = time.perf_counter()
        unit = run_unit(workload, seed, size, ops, pin,
                        repeats=wl.REPEATS[workload],
                        tag=f"unit{len(units)}.", host=host)
        if not units and workload == "fig5_saturated" and unit["tlm"]:
            ops.record("run_case_study",
                       wl.case_study_identity(unit["tlm"][0], size))
        for legs in unit.values():
            for leg in legs:
                leg.rig = None   # peak memory must not grow with units
        units.append(unit)
        now = time.perf_counter()
        if now - began + (now - unit_began) > seconds:
            break
    metrics = {}
    for mode in wl.MODES:
        segments = [segment for unit in units for leg in unit[mode]
                    for segment in leg.segments]
        if segments:
            metrics[RATE_METRIC[mode]] = statistics.median(
                cycles / calibrated(seconds, loop_s)
                for cycles, seconds, loop_s in segments)
            print(f"info raw {RATE_METRIC[mode]} = "
                  f"{statistics.median(c / s for c, s, __ in segments)} "
                  "cycles/s (uncalibrated host seconds)")
    # a scenario's time is its legs' (build, run, read)
    unit_ms = [1e3 * sum(calibrated(leg.op_s, leg.loop_s)
                         for legs in unit.values() for leg in legs)
               for unit in units]
    metrics.update(timing_metrics(unit_ms,
                                  len(unit_ms) / (sum(unit_ms) / 1e3)))
    ratios = {wl.tlm_ratio(unit["fast"][0], unit["tlm"][0])
              for unit in units if unit["fast"] and unit["tlm"]}
    ops.record("tlm.deterministic",
               None if len(ratios) == 1 else f"ratios differ: {ratios}")
    ratio = max((r for r in ratios if r is not None), default=None)
    if ratio is not None:
        metrics["tlm_bytes_ratio"] = ratio
        print_tlm_err(ratio)
    print(f"info units = {len(units)}")
    return metrics


def trace_fabric(workload, seed, size, ops, pin, run_id,
                 trace_dir: Path) -> dict:
    warm_up(workload, seed, size)
    began = time.perf_counter()
    plain = run_unit(workload, seed, size, ops, pin, tag="plain.")
    plain_wall = time.perf_counter() - began
    tracer = LayerTracer(run_id, wl.layer_of)
    tracer.patch(TlmEngine, "advance", "tlm.advance")
    began = time.perf_counter()
    try:
        with tracer.span("workload", workload=workload, seed=seed):
            traced = run_unit(workload, seed, size, ops, pin,
                              tracer=tracer, tag="traced.")
    finally:
        leftovers = tracer.close()
    traced_wall = time.perf_counter() - began
    ops.record("trace.removed", leftovers or None)
    plain = {mode: legs[0] for mode, legs in plain.items()}
    traced = {mode: legs[0] for mode, legs in traced.items()}
    for mode in wl.MODES:
        a, b = plain[mode], traced[mode]
        same = json.dumps([a.signature, a.model, a.skip], sort_keys=True) \
            == json.dumps([b.signature, b.model, b.skip], sort_keys=True)
        ops.record(f"trace.identical.{mode}",
                   None if same else "traced run changed the outputs")
    metrics = {name: 0 for name, *__ in ledger.PER_LAYER}
    ref, fast, tlm = (plain[mode] for mode in wl.MODES)
    metrics.update(kernel_metrics(fast.skip, fast.run_s,
                                  ref.run_s / fast.run_s))
    metrics.update(tlm_metrics(tlm.skip, tlm.run_s, fast.run_s, tlm.cycles))
    for prefix, leg in (("model", fast), ("model.tlm", tlm)):
        for key, value in leg.model.items():
            metrics[f"{prefix}.{key}"] = value
    cycle_accurate = traced["reference"].run_s + traced["fast"].run_s
    metrics["kernel.self_s"] = cycle_accurate - tracer.component_ns(
        ("reference", "fast")) / 1e9
    metrics["tlm.self_s"] = traced["tlm"].run_s - tracer.component_ns(
        ("tlm",)) / 1e9
    metrics.update(layer_metrics(tracer))
    metrics["supervisor.watchdog_trips"] = sum(
        sup.fault_stats.watchdog_trips
        for sup in ref.rig.soc.interconnect.supervisors)
    metrics["supervisor.protocol_trips"] = sum(
        sup.fault_stats.protocol_trips
        for sup in ref.rig.soc.interconnect.supervisors)
    metrics["builder.build_s"] = sum(leg.op_s - leg.run_s
                                     for leg in plain.values())
    metrics["trace.overhead_x"] = traced_wall / plain_wall
    metrics.update(parallel_fabric(workload, seed, size, ops))
    tracer.write(trace_dir / f"{workload}-seed{seed}.json",
                 {"workload": workload, "seed": seed,
                  "plain_wall_s": plain_wall, "traced_wall_s": traced_wall})
    return metrics


def parallel_fabric(workload, seed, size, ops) -> dict:
    """Sharded engine (2 workers) against serial fast, same window."""
    limit = (size["parallel_fig5_window"] if workload == "fig5_saturated"
             else size["parallel_bursty_windows"])
    times, sigs, backend = {}, {}, None
    for mode in ("fast", "inline", "threads"):
        rig = wl.build_rig(workload, mode, seed, size)
        try:
            times[mode] = sum(seconds for __, seconds, __
                              in wl.drive(rig, size, limit=limit))
            sigs[mode] = wl.signature(rig)
            if mode == "threads":
                backend = rig.sim.skip_stats.resolved_backend
        finally:
            rig.sim.finish()
    for mode in ("inline", "threads"):
        ops.record(f"parallel.{mode}",
                   None if sigs[mode] == sigs["fast"]
                   else f"{sigs[mode]} != fast {sigs['fast']}")
    return parallel_metrics(times, backend)


def parallel_metrics(times: dict, backend) -> dict:
    print(f"info parallel.resolved_backend = {backend}")
    return {"parallel.inline_over_fast": times["fast"] / times["inline"],
            "parallel.threads_over_fast": times["fast"] / times["threads"],
            "parallel.resolved_backend_code": ledger.BACKEND_CODES[backend]}


# ----------------------------------------------------------------------
# per-layer arithmetic shared by the workloads
# ----------------------------------------------------------------------

def kernel_metrics(skip: dict, fast_s: float, fast_over_ref: float) -> dict:
    polled = skip["cycles_polled"]
    batches = skip["commit_batches"]
    return {
        "kernel.cycles_polled": polled,
        "kernel.cycles_frozen": skip["cycles_frozen"],
        "kernel.ticks_run": skip["ticks_run"],
        "kernel.ticks_skipped": skip["ticks_skipped"],
        "kernel.ticks_slept": skip["ticks_slept"],
        "kernel.work_avoided_fraction": skip["work_avoided_fraction"],
        "kernel.ns_per_polled_cycle": (1e9 * fast_s / polled
                                       if polled else 0),
        "kernel.fast_over_ref": fast_over_ref,
        "kernel.horizon_scans": skip["horizon_scans"],
        "commit.batches": batches,
        "commit.channels": skip["commit_channels"],
        "commit.channels_per_batch": (skip["commit_channels"] / batches
                                      if batches else 0),
        "wakeheap.pushes": skip["heap_pushes"],
        "wakeheap.pops": skip["heap_pops"],
    }


def tlm_metrics(skip: dict, tlm_s: float, fast_s: float,
                cycles: int) -> dict:
    out = {
        "tlm.epochs": skip["tlm_epochs"],
        "tlm.rollbacks": skip["tlm_rollbacks"],
        "tlm.skipped_fraction": skip["tlm_cycles_skipped"] / cycles,
        "tlm.speedup_over_fast": fast_s / tlm_s,
        "tlm.decline_overhead_pct": 100.0 * (tlm_s / fast_s - 1.0),
    }
    other = 0
    for reason, count in skip["tlm_demotions"].items():
        if reason in ledger.DEMOTION_REASONS:
            out[f"tlm.demotions.{reason}"] = count
        else:
            other += count
    out["tlm.demotions.other"] = other
    return out


def layer_metrics(tracer: LayerTracer) -> dict:
    out = {}
    for layer in ledger.COMPONENT_LAYERS:
        accs = [acc for (__, name), acc in tracer.layers.items()
                if name == layer]
        out[f"{layer}.tick_s"] = sum(acc[0] for acc in accs) / 1e9
        out[f"{layer}.ticks"] = sum(acc[1] for acc in accs)
        out[f"{layer}.poll_s"] = sum(acc[2] for acc in accs) / 1e9
    return out


# ----------------------------------------------------------------------
# campaign_faults_churn
# ----------------------------------------------------------------------

def campaign_pin(seed: int, tiny: bool, pins: dict):
    return None if tiny else pins["campaign_faults_churn"].get(str(seed))


def campaign_inputs(seed, size, ops) -> list:
    scenarios = wl.campaign_scenarios(seed, size["campaign_limit"])
    if seed == 0:
        ops.record("grid_identity",
                   wl.grid_identity(scenarios, size["campaign_limit"]))
    return scenarios


def check_pass(result, ops, pin, tag) -> None:
    for record in result.records:
        ops.record(f"{tag}scenario{record['index']}",
                   None if record["verdict"] == "pass"
                   else f"{record['verdict']} {record['oracle']}: "
                        f"{record['detail']}")
    if pin is not None:
        ops.record(f"{tag}digest", None if result.digest == pin
                   else f"digest {result.digest} != pinned {pin}")


def check_sweep(sweep, passes, ops) -> None:
    for error in sweep.errors:
        ops.record("sweep", error)
    reference = sweep.digests["reference"]
    for index, digest in enumerate(reference):
        ops.record(f"sweep.reference{index}", None)
        ops.record(f"sweep.fast{index}",
                   None if sweep.digests["fast"][index] == digest
                   else "fast fingerprint != reference")
    for index in range(len(sweep.digests["tlm"])):
        ops.record(f"sweep.tlm{index}", None)
    for result in passes:
        recorded = [record["digest"] for record in result.records]
        ops.record("sweep.matches_campaign",
                   None if recorded == reference
                   else "reference fingerprints differ from the campaign")


def calibrated_pass(scenarios, host) -> tuple:
    """One campaign pass with a host sample after every record; returns
    (result, calibrated ms per record, calibrated seconds of the pass)."""
    loops = [host.sample()]
    sampled = host.spent_s
    result = wl.run_pass(scenarios,
                         progress=lambda record: loops.append(host.sample()))
    record_ms = [calibrated(record["elapsed_ms"], (before + after) / 2)
                 for record, before, after
                 in zip(result.records, loops, loops[1:])]
    # campaign time outside the records, sampling left out
    rest_s = result.wall_s - (host.spent_s - sampled) - sum(
        record["elapsed_ms"] for record in result.records) / 1e3
    pass_s = sum(record_ms) / 1e3 + calibrated(rest_s,
                                               statistics.median(loops))
    return result, record_ms, pass_s


def measure_campaign(seed, seconds, size, ops, pin, host) -> dict:
    scenarios = campaign_inputs(seed, size, ops)
    began = time.perf_counter()
    sweep = wl.sweep(scenarios, host)
    print(f"info sweep host s = {time.perf_counter() - began}")
    passes, pass_ms, rates = [], [], []
    while True:
        pass_began = time.perf_counter()
        result, record_ms, pass_s = calibrated_pass(scenarios, host)
        check_pass(result, ops, pin, f"pass{len(passes)}.")
        passes.append(result)
        pass_ms.append(record_ms)
        rates.append(len(result.records) / pass_s)
        now = time.perf_counter()
        if now - began + (now - pass_began) > seconds:
            break
    check_sweep(sweep, passes, ops)
    metrics = {RATE_METRIC[mode]: sweep.cycles[mode]
               / sweep.calibrated_s[mode] for mode in wl.MODES}
    for mode in wl.MODES:
        print(f"info raw {RATE_METRIC[mode]} = "
              f"{sweep.cycles[mode] / sweep.run_s[mode]} cycles/s "
              "(uncalibrated host seconds)")
    # one time per scenario, its median over the passes, so that the
    # tail percentile does not move with the number of passes
    op_ms = [statistics.median(times) for times in zip(*pass_ms)]
    metrics.update(timing_metrics(op_ms, statistics.median(rates)))
    if sweep.tlm_ratio is not None:
        metrics["tlm_bytes_ratio"] = sweep.tlm_ratio
        print_tlm_err(sweep.tlm_ratio)
    print(f"info passes = {len(passes)} (host s "
          f"{[result.wall_s for result in passes]}), "
          f"scenarios = {len(scenarios)}")
    return metrics


class _LegLabels:
    """Names each harness leg of one scenario, in evaluate_scenario's
    order: the first reference-kernel run is the reference, the fast
    run is "fast", later reference-kernel runs are fault-free or
    churn-free twins."""

    def __init__(self) -> None:
        self.leg = None
        self.reference_seen = False

    def scenario(self, index, *__, **___) -> dict:
        self.reference_seen = False
        return {"index": index}

    def run_scenario(self, scenario, fast, parallel=0,
                     parallel_backend="auto", tlm=False) -> dict:
        if tlm:
            self.leg = "tlm"
        elif fast:
            self.leg = "fast"
        elif self.reference_seen:
            self.leg = "twin"
        else:
            self.leg = "reference"
            self.reference_seen = True
        return {"leg": self.leg}


def trace_campaign(seed, size, ops, pin, run_id, trace_dir: Path) -> dict:
    scenarios = campaign_inputs(seed, size, ops)
    plain = wl.run_pass(scenarios)
    check_pass(plain, ops, pin, "plain.")
    tracer = LayerTracer(run_id, wl.layer_of)
    labels = _LegLabels()
    trips = {"watchdog": 0, "protocol": 0, "revocations": 0}

    def built(system, *__, **___) -> dict:
        tracer.instrument(system.sim, labels.leg)
        return {}

    def ran(result, system) -> dict:
        if labels.leg == "reference":
            for station in system.stations:
                supervisor = station.supervisor
                if supervisor is not None:
                    stats = supervisor.fault_stats
                    trips["watchdog"] += stats.watchdog_trips
                    trips["protocol"] += stats.protocol_trips
                    trips["revocations"] += supervisor.revocations
        return {"cycles": result.now}

    tracer.patch(campaign, "evaluate_record", "scenario",
                 before=labels.scenario)
    tracer.patch(oracles, "run_scenario", "leg", before=labels.run_scenario)
    tracer.patch(harness, "build_system", "harness.build_system",
                 after=built)
    tracer.patch(harness, "run_system", "harness.run_system", after=ran)
    for name in sorted(vars(oracles)):
        if name.startswith("check_") and name != "check_scenario":
            tracer.patch(oracles, name, f"oracle.{name}")
    tracer.patch(TlmEngine, "advance", "tlm.advance")
    try:
        with tracer.span("workload", workload="campaign_faults_churn",
                         seed=seed):
            traced = wl.run_pass(scenarios)
    finally:
        leftovers = tracer.close()
    ops.record("trace.removed", leftovers or None)
    check_pass(traced, ops, pin, "traced.")
    ops.record("trace.identical", None if traced.digest == plain.digest
               else "traced campaign digest differs")
    sweep = wl.sweep(scenarios)
    check_sweep(sweep, [plain], ops)

    metrics = {name: 0 for name, *__ in ledger.PER_LAYER}
    fast_s = sweep.run_s["fast"]
    metrics.update(kernel_metrics(
        sweep.skip["fast"], fast_s,
        (sweep.run_s["reference"] / sweep.cycles["reference"])
        / (fast_s / sweep.cycles["fast"])))
    metrics.update(tlm_metrics(sweep.skip["tlm"], sweep.run_s["tlm"],
                               fast_s, sweep.cycles["tlm"]))
    metrics.update(layer_metrics(tracer))
    spans = tracer.by_id()
    n = max(1, tracer.count("scenario"))
    for label in ("reference", "fast", "twin"):
        metrics[f"verify.run_s.{label}"] = tracer.total_s(
            "harness.run_system",
            lambda span: spans[span["parent"]].get("leg") == label)
    metrics["verify.build_s"] = tracer.total_s("harness.build_system")
    metrics["verify.oracle_s"] = sum(
        span["end_ns"] - span["start_ns"] for span in tracer.spans
        if span["name"].startswith("oracle.")) / 1e9
    metrics["verify.legs_per_scenario"] = tracer.count("leg") / n
    metrics["verify.cycles_per_scenario"] = sum(
        span["cycles"] for span in tracer.spans
        if span["name"] == "harness.run_system") / n
    metrics["campaign.overhead_s"] = traced.wall_s - tracer.total_s(
        "scenario")
    metrics["kernel.self_s"] = tracer.total_s("harness.run_system") \
        - tracer.component_ns(("reference", "fast", "twin")) / 1e9
    metrics["supervisor.watchdog_trips"] = trips["watchdog"]
    metrics["supervisor.protocol_trips"] = trips["protocol"]
    metrics["hypervisor.revocations"] = trips["revocations"]
    metrics["builder.build_s"] = metrics["verify.build_s"]
    metrics["trace.overhead_x"] = traced.wall_s / plain.wall_s
    metrics.update(parallel_campaign(
        scenarios[:size["parallel_campaign_scenarios"]], ops))
    tracer.write(trace_dir / f"campaign_faults_churn-seed{seed}.json",
                 {"workload": "campaign_faults_churn", "seed": seed,
                  "plain_wall_s": plain.wall_s,
                  "traced_wall_s": traced.wall_s})
    return metrics


def parallel_campaign(scenarios, ops) -> dict:
    """Sharded engine (2 workers) against serial fast per scenario."""
    times = {"fast": 0.0, "inline": 0.0, "threads": 0.0}
    backend = None
    for index, scenario in enumerate(scenarios):
        digests = {}
        for mode in times:
            kwargs = dict(wl.MODE_KWARGS[mode])
            system = build_system(scenario, fast=kwargs.pop("fast", False),
                                  **kwargs)
            try:
                began = time.perf_counter()
                digests[mode] = fingerprint_digest(run_system(system))
                times[mode] += time.perf_counter() - began
                if mode == "threads":
                    backend = system.sim.skip_stats.resolved_backend
            finally:
                system.sim.finish()
        for mode in ("inline", "threads"):
            ops.record(f"parallel.{mode}{index}",
                       None if digests[mode] == digests["fast"]
                       else "sharded fingerprint != fast")
    return parallel_metrics(times, backend)
