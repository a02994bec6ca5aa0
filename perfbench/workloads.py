"""The three benchmark workloads, built and checked through the public API.

Every simulation is built fresh per mode run; host time for the
``*_cycles_per_s`` metrics covers ``Simulator.run`` only (build
excluded).  Given a :class:`hostspeed.HostSpeed`, every timed run is
bracketed by reference-loop samples so it can be calibrated.  A
*signature* is the per-port (bytes read, bytes written, jobs
completed, error responses) tuple list plus the DRAM beats served:
reference and fast runs must produce identical signatures, equal to the
values pinned in ``pins.json`` for pinned seeds.
"""

from __future__ import annotations

import random
import re
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from hostspeed import HostSpeed, calibrated

from repro.hyperconnect.central import CentralUnit
from repro.hyperconnect.exbar import Exbar
from repro.hyperconnect.hyperconnect import MasterEFifo
from repro.hyperconnect.supervisor import TransactionSupervisor
from repro.hypervisor.recovery import FaultRecoveryAgent, \
    RevocationController
from repro.masters import AxiDma, AxiMasterEngine, ChaiDnnAccelerator, \
    DmaDescriptor
from repro.memory.dram import MemorySubsystem
from repro.memory.multiport import MultiPortMemorySubsystem
from repro.platforms import ZCU102
from repro.sim import KernelSkipStats
from repro.system import CASE_STUDY_DMA_BYTES, SocSystem, \
    measure_access_time, measure_channel_latencies, run_case_study
from repro.verify import GRIDS, CampaignConfig, build_system, \
    fingerprint_digest, grid_scenarios, run_campaign, run_system

MODES = ("reference", "fast", "tlm")

#: Simulator keyword arguments per execution mode; "inline"/"threads"
#: are the sharded engine, timed only in the traced run
MODE_KWARGS = {
    "reference": {"fast": False},
    "fast": {"fast": True},
    "tlm": {"tlm": True},
    "inline": {"parallel": 2, "parallel_backend": "inline"},
    "threads": {"parallel": 2, "parallel_backend": "threads"},
}

#: run sizes; "tiny" is the self-check size (pins do not apply)
SIZES = {
    "full": {"fig5_window": 200_000, "bursty_windows": 8,
             "bursty_window": 30_000, "campaign_limit": None,
             "parallel_fig5_window": 40_000, "parallel_bursty_windows": 2,
             "parallel_campaign_scenarios": 6},
    "tiny": {"fig5_window": 4_000, "bursty_windows": 1,
             "bursty_window": 30_000, "campaign_limit": 3,
             "parallel_fig5_window": 2_000, "parallel_bursty_windows": 1,
             "parallel_campaign_scenarios": 1},
}

#: legs per mode in one measured scenario, so that the short legs get
#: about as many host seconds of samples as the reference leg
REPEATS = {
    "fig5_saturated": {"reference": 1, "fast": 1, "tlm": 3},
    "bursty8_copy": {"reference": 1, "fast": 2, "tlm": 2},
}

# Fig. 5 HC-50-50 row (EXPERIMENTS.md): CHaiDNN on port 0, greedy
# 64-beat DMA on port 1, workload scale 1/64, period 2048
FIG5_SCALE = 1 / 64
FIG5_PERIOD = 2048
FIG5_SHARES = {0: 0.5, 1: 0.5}
FIG5_DMA_BURST = 64
#: reference and fast Fig. 5 runs are timed in chunks of this many
#: cycles (a run's results do not depend on how it is split), short
#: enough for the host-speed samples around each chunk to track the
#: host; TLM runs whole, because its epochs end at run boundaries
FIG5_CHUNK = 20_000

BURSTY_PORTS = 8
#: bytes each port copies per window (fixed total; the seed splits it)
BURSTY_BYTES = 4096
BURSTY_JOBS = 4
BURSTY_BASE = 0x1000_0000
BURSTY_PORT_SPAN = 0x100_0000
BURSTY_DEST_OFFSET = 0x80_0000

CAMPAIGN_GRIDS = ("faults", "churn")

FIG3B_SIZES = (("1 word", 16), ("16-word burst", 256), ("16 KiB", 16 << 10))


def layer_of(component) -> str:
    """The ledger layer (a ``src/repro`` module) a component belongs to."""
    for classes, layer in (
            ((TransactionSupervisor,), "hyperconnect.supervisor"),
            ((Exbar,), "hyperconnect.exbar"),
            ((CentralUnit,), "hyperconnect.central"),
            ((MasterEFifo,), "hyperconnect.efifo"),
            ((MemorySubsystem, MultiPortMemorySubsystem), "memory.dram"),
            ((AxiMasterEngine,), "masters.engine"),
            ((FaultRecoveryAgent, RevocationController),
             "hypervisor.recovery")):
        if isinstance(component, classes):
            return layer
    return "other"


# ----------------------------------------------------------------------
# fabric workloads: fig5_saturated and bursty8_copy
# ----------------------------------------------------------------------

@dataclass
class Rig:
    """One built system: the simulator plus what the signature reads."""

    soc: SocSystem
    engines: List[AxiMasterEngine]
    plan: Optional[list] = None

    @property
    def sim(self):
        return self.soc.sim


@dataclass
class Leg:
    """One mode run of a fabric workload."""

    mode: str
    #: (simulated cycles, host seconds, reference-loop seconds or None)
    #: per timed ``Simulator.run``
    segments: List[tuple]
    #: host seconds of the whole leg: build, run and read (sampling the
    #: host left out)
    op_s: float
    signature: list
    model: Dict[str, float]
    skip: dict
    rig: Optional[Rig] = field(repr=False)

    @property
    def cycles(self) -> int:
        return sum(cycles for cycles, *__ in self.segments)

    @property
    def run_s(self) -> float:
        return sum(seconds for __, seconds, __ in self.segments)

    @property
    def loop_s(self) -> Optional[float]:
        """Median reference-loop seconds around the leg's runs."""
        loops = [loop_s for *__, loop_s in self.segments if loop_s]
        return statistics.median(loops) if loops else None


def build_fig5(mode: str) -> Rig:
    """The Fig. 5 HC-50-50 system, wired as ``run_case_study`` wires it."""
    soc = SocSystem.build(ZCU102, n_ports=2, period=FIG5_PERIOD,
                          **MODE_KWARGS[mode])
    chaidnn = ChaiDnnAccelerator(soc.sim, "chaidnn", soc.port(0),
                                 scale=FIG5_SCALE)
    chaidnn.start()
    beat = ZCU102.hp_data_bytes
    nbytes = max(4096, int(CASE_STUDY_DMA_BYTES * FIG5_SCALE))
    nbytes = (nbytes // beat) * beat
    dma = AxiDma(soc.sim, "ha-dma", soc.port(1), burst_len=FIG5_DMA_BURST)
    dma.program([DmaDescriptor("read", 0x1000_0000, nbytes),
                  DmaDescriptor("write", 0x2000_0000, nbytes)], repeat=True)
    dma.start()
    soc.driver.set_bandwidth_shares(FIG5_SHARES)
    return Rig(soc, [chaidnn, dma])


def bursty_plan(seed: int, windows: int) -> list:
    """Per window, per port: copy jobs (source, nbytes) of fixed total."""
    rng = random.Random(seed)
    beats = BURSTY_BYTES // 16
    plan = []
    for __ in range(windows):
        ports = []
        for port in range(BURSTY_PORTS):
            cuts = sorted(rng.sample(range(1, beats), BURSTY_JOBS - 1))
            sizes = [16 * (b - a)
                     for a, b in zip([0] + cuts, cuts + [beats])]
            base = BURSTY_BASE + port * BURSTY_PORT_SPAN
            ports.append([(base + rng.randrange(1 << 12) * 16, size)
                          for size in sizes])
        plan.append(ports)
    return plan


def build_bursty(mode: str, plan: list) -> Rig:
    soc = SocSystem.build(ZCU102, n_ports=BURSTY_PORTS, **MODE_KWARGS[mode])
    dmas = [AxiDma(soc.sim, f"dma{port}", soc.port(port))
            for port in range(BURSTY_PORTS)]
    return Rig(soc, dmas, plan)


def build_rig(workload: str, mode: str, seed: int, size: dict) -> Rig:
    if workload == "fig5_saturated":
        return build_fig5(mode)
    return build_bursty(mode, bursty_plan(seed, size["bursty_windows"]))


def drive(rig: Rig, size: dict, limit: Optional[int] = None,
          host: Optional[HostSpeed] = None) -> list:
    """Run the rig's traffic; returns (cycles, host seconds,
    reference-loop seconds) per timed segment, the last the mean of the
    host samples before and after it (None without ``host``).
    ``limit`` shortens the run: cycles for Fig. 5, windows for the
    bursty plan."""
    sim = rig.sim
    segments = []
    before = None if host is None else host.sample()

    def run(cycles: int) -> None:
        nonlocal before
        began = time.perf_counter()
        sim.run(cycles)
        seconds = time.perf_counter() - began
        after = None if host is None else host.sample()
        segments.append((cycles, seconds,
                         None if host is None else (before + after) / 2))
        before = after

    if rig.plan is None:
        total = size["fig5_window"] if limit is None else limit
        step = total if sim.tlm else min(FIG5_CHUNK, total)
        while total > 0:
            cycles = min(step, total)
            run(cycles)
            total -= cycles
        return segments
    plan = rig.plan if limit is None else rig.plan[:limit]
    for window in plan:
        for engine, jobs in zip(rig.engines, window):
            for source, nbytes in jobs:
                engine.enqueue_copy(source, source + BURSTY_DEST_OFFSET,
                                    nbytes)
        run(size["bursty_window"])
    return segments


def signature(rig: Rig) -> list:
    """Per port: bytes read, bytes written, jobs completed, error
    responses and the sum of job completion cycles; then DRAM beats."""
    ports = [[engine.bytes_read, engine.bytes_written,
              len(engine.jobs_completed), engine.error_responses,
              sum(job.completed for job in engine.jobs_completed)]
             for engine in rig.engines]
    return [ports, rig.soc.memory.beats_served]


def model_counters(rig: Rig) -> Dict[str, float]:
    """Deterministic modelled-hardware counters of one run."""
    hc = rig.soc.interconnect
    out: Dict[str, float] = {}
    moved = 0
    for port, engine in enumerate(rig.engines):
        nbytes = engine.bytes_read + engine.bytes_written
        moved += nbytes
        out[f"port{port}.bytes"] = nbytes
        out[f"port{port}.stalled_on_budget"] = \
            hc.supervisors[port].stalled_on_budget
    out["exbar.grants_ar"] = hc.exbar.grants_ar
    out["exbar.grants_aw"] = hc.exbar.grants_aw
    beats = rig.soc.memory.beats_served
    out["dram.beats_served"] = beats
    served = beats * ZCU102.hp_data_bytes
    out["bytes_unserved_pct"] = (100.0 * (moved - served) / moved
                                 if moved else 0.0)
    return out


def run_leg(workload: str, mode: str, seed: int, size: dict,
            tracer=None, host: Optional[HostSpeed] = None) -> Leg:
    """Build, run and read one mode run (host time of ``run`` only)."""
    sampled = 0.0 if host is None else host.spent_s
    started = time.perf_counter()
    rig = build_rig(workload, mode, seed, size)
    if tracer is None:
        segments = drive(rig, size, host=host)
    else:
        tracer.instrument(rig.sim, mode)
        with tracer.span("mode_run", mode=mode):
            segments = drive(rig, size, host=host)
    sig, model = signature(rig), model_counters(rig)
    op_s = time.perf_counter() - started
    if host is not None:
        op_s -= host.spent_s - sampled
    return Leg(mode, segments, op_s, sig, model,
               rig.sim.skip_stats.as_dict(), rig)


def tlm_ratio(fast: Leg, tlm: Leg) -> Optional[float]:
    """max over ports of max(TLM/fast, fast/TLM) bytes; None = a port
    moved bytes in one mode and none in the other."""
    worst = 1.0
    for f_port, t_port in zip(fast.signature[0], tlm.signature[0]):
        f_bytes, t_bytes = f_port[0] + f_port[1], t_port[0] + t_port[1]
        if f_bytes == 0 and t_bytes == 0:
            continue
        if f_bytes == 0 or t_bytes == 0:
            return None
        worst = max(worst, t_bytes / f_bytes, f_bytes / t_bytes)
    return worst


def tlm_progress(leg: Leg) -> bool:
    ports, beats = leg.signature
    return beats > 0 and all(port[0] + port[1] > 0 for port in ports)


def case_study_identity(tlm_leg: Leg, size: dict) -> Optional[str]:
    """The rig reproduces ``run_case_study``'s HC-50-50 row (TLM mode,
    the cheapest mode at the same window); returns a mismatch or None."""
    result = run_case_study("hyperconnect", shares=FIG5_SHARES,
                            scale=FIG5_SCALE, period=FIG5_PERIOD,
                            dma_burst_len=FIG5_DMA_BURST,
                            window_cycles=size["fig5_window"], tlm=True)
    chaidnn, dma = tlm_leg.rig.engines
    mine = (chaidnn.frames_completed, dma.rounds_completed,
            tlm_leg.skip["tlm_epochs"])
    theirs = (result.chaidnn_frames, result.dma_rounds,
              result.skip_stats["tlm_epochs"])
    return None if mine == theirs else f"rig {mine} != run_case_study " \
                                       f"{theirs}"


# ----------------------------------------------------------------------
# campaign_faults_churn
# ----------------------------------------------------------------------

def campaign_scenarios(seed: int, limit: Optional[int] = None) -> list:
    """The registered faults + churn pairwise grids.

    The grid structure (which axes combine) is the registered pairwise
    covering array; the benchmark seed re-draws each row's ``seed`` axis
    (fault RNG streams and which tenants are faulted).  Re-drawing the
    covering array itself changes the per-run cost by ~25% between
    seeds, which would swamp every bound.  Seed 0 keeps the registered
    values, i.e. exactly ``grid_scenarios(name)``.
    """
    rng = random.Random(seed)
    scenarios = []
    seen = set()
    for name in CAMPAIGN_GRIDS:
        spec = GRIDS[name]
        for assignment in spec.space():
            if seed:
                assignment = dict(assignment,
                                  seed=rng.randrange(1, 1 << 16))
            scenario = spec.compile(assignment)
            key = scenario.to_json()
            if key not in seen:
                seen.add(key)
                scenarios.append(scenario)
    return scenarios if limit is None else scenarios[:limit]


def campaign_checks() -> tuple:
    """The grids' own oracle checks (one run_campaign call serves both)."""
    checks = {GRIDS[name].checks for name in CAMPAIGN_GRIDS}
    if len(checks) != 1:
        raise ValueError(f"grids {CAMPAIGN_GRIDS} disagree on checks")
    return checks.pop()


def grid_identity(scenarios: list, limit: Optional[int]) -> Optional[str]:
    """At seed 0 the scenario list is ``grid_scenarios``'s, in order."""
    registered = []
    for name in CAMPAIGN_GRIDS:
        grid, __ = grid_scenarios(name)
        registered.extend(grid)
    if limit is not None:
        registered = registered[:limit]
    if [s.to_json() for s in registered] != [s.to_json()
                                             for s in scenarios]:
        return "seed-0 scenarios differ from grid_scenarios()"
    return None


def run_pass(scenarios: list, progress=None):
    return run_campaign(scenarios, workers=1,
                        config=CampaignConfig(checks=campaign_checks()),
                        progress=progress)


@dataclass
class Sweep:
    """Every scenario run once per mode, build excluded from run_s."""

    run_s: Dict[str, float]
    #: run_s scaled to the nominal host, run by run (None without host)
    calibrated_s: Optional[Dict[str, float]]
    cycles: Dict[str, int]
    digests: Dict[str, List[str]]
    #: per mode, the scenarios' KernelSkipStats summed (as_dict form)
    skip: Dict[str, dict]
    tlm_ratio: Optional[float]
    errors: List[str]


def _engine_bytes(result) -> List[int]:
    return [info["bytes_read"] + info["bytes_written"]
            for info in result.engines]


def _add_stats(total: KernelSkipStats, stats: KernelSkipStats) -> None:
    for name in KernelSkipStats.__slots__:
        value = getattr(stats, name)
        if isinstance(value, int):
            setattr(total, name, getattr(total, name) + value)
    for reason, count in stats.tlm_demotions.items():
        total.tlm_demotions[reason] = \
            total.tlm_demotions.get(reason, 0) + count


def sweep(scenarios: list, host: Optional[HostSpeed] = None) -> Sweep:
    run_s = {mode: 0.0 for mode in MODES}
    calibrated_s = {mode: 0.0 for mode in MODES}
    before = None if host is None else host.sample()
    cycles = {mode: 0 for mode in MODES}
    digests: Dict[str, List[str]] = {mode: [] for mode in MODES}
    totals = {mode: KernelSkipStats() for mode in MODES}
    worst: Optional[float] = 1.0
    errors: List[str] = []
    for index, scenario in enumerate(scenarios):
        results, seconds = {}, {}
        for mode in MODES:
            kwargs = MODE_KWARGS[mode]
            try:
                system = build_system(scenario,
                                      fast=kwargs.get("fast", True),
                                      tlm=kwargs.get("tlm", False))
                begin = time.perf_counter()
                result = run_system(system)
                seconds[mode] = time.perf_counter() - begin
                run_s[mode] += seconds[mode]
            except Exception as error:   # noqa: BLE001 - counted as failed
                errors.append(f"scenario {index} {mode}: "
                              f"{type(error).__name__}: {error}")
                continue
            results[mode] = result
            cycles[mode] += result.now
            digests[mode].append(fingerprint_digest(result))
            _add_stats(totals[mode], system.sim.skip_stats)
        if host is not None:   # one sample pair brackets all modes
            after = host.sample()
            for mode, mode_s in seconds.items():
                calibrated_s[mode] += calibrated(mode_s, (before + after) / 2)
            before = after
        if "fast" in results and "tlm" in results:
            for f_bytes, t_bytes in zip(_engine_bytes(results["fast"]),
                                        _engine_bytes(results["tlm"])):
                if f_bytes == 0 and t_bytes == 0:
                    continue
                if f_bytes == 0 or t_bytes == 0:
                    errors.append(f"scenario {index} tlm: no progress "
                                  f"(fast {f_bytes} B, tlm {t_bytes} B)")
                    continue
                worst = max(worst, t_bytes / f_bytes, f_bytes / t_bytes)
    skip = {mode: totals[mode].as_dict() for mode in MODES}
    return Sweep(run_s, None if host is None else calibrated_s, cycles,
                 digests, skip, worst, errors)


# ----------------------------------------------------------------------
# Fig. 3 gate, compared with EXPERIMENTS.md
# ----------------------------------------------------------------------

def _section(text: str, heading: str) -> List[List[str]]:
    """Table rows (cells, without emphasis or digit-group spaces) of the
    EXPERIMENTS.md section whose heading starts with ``heading``."""
    rows = []
    inside = False
    for line in text.splitlines():
        if line.startswith("## "):
            inside = line.startswith(heading)
            continue
        if inside and line.startswith("|"):
            cells = [cell.strip().replace("*", "")
                     for cell in line.strip().strip("|").split("|")]
            rows.append(cells)
    return rows


def _number(cell: str) -> Optional[int]:
    digits = re.sub(r"\s", "", cell)
    return int(digits) if digits.isdigit() else None


def fig3_expected(experiments: Path) -> dict:
    text = experiments.read_text(encoding="utf-8")
    latency = {"hyperconnect": {}, "smartconnect": {}}
    for cells in _section(text, "## Fig. 3(a)"):
        if cells[0] in ("AR", "AW", "R", "W", "B"):
            latency["hyperconnect"][cells[0]] = _number(cells[2])
            latency["smartconnect"][cells[0]] = _number(cells[4])
    access = {"hyperconnect": {}, "smartconnect": {}}
    for cells in _section(text, "## Fig. 3(b)"):
        for label, nbytes in FIG3B_SIZES:
            if cells[0].startswith(label):
                access["hyperconnect"][nbytes] = _number(cells[1])
                access["smartconnect"][nbytes] = _number(cells[2])
    return {"latency": latency, "access": access}


def fig3_checks(experiments: Path) -> List[tuple]:
    """(name, error-or-None) per regenerated Fig. 3 point."""
    expected = fig3_expected(experiments)
    checks = []
    for fabric in ("hyperconnect", "smartconnect"):
        want = expected["latency"][fabric]
        got = measure_channel_latencies(fabric, fast=True).as_dict()
        error = None if got == want and len(want) == 5 else \
            f"{fabric} latencies {got} != EXPERIMENTS.md {want}"
        checks.append((f"fig3a.{fabric}", error))
        for __, nbytes in FIG3B_SIZES:
            want_t = expected["access"][fabric].get(nbytes)
            got_t = measure_access_time(fabric, nbytes, fast=True)
            error = None if got_t == want_t else \
                f"{fabric} {nbytes} B access {got_t} != EXPERIMENTS.md " \
                f"{want_t}"
            checks.append((f"fig3b.{fabric}.{nbytes}", error))
    return checks


def setup(workload: str, seed: int, size: dict) -> None:
    """Everything a run does before its first timed cycle or scenario."""
    if workload == "campaign_faults_churn":
        scenarios = campaign_scenarios(seed, size["campaign_limit"])
        for mode in MODES:
            kwargs = MODE_KWARGS[mode]
            build_system(scenarios[0], fast=kwargs.get("fast", True),
                         tlm=kwargs.get("tlm", False))
        return
    for mode in MODES:
        build_rig(workload, mode, seed, size)

