"""Engineering benchmark: sharded parallel tick-engine scaling.

Not a paper figure — this tracks the throughput of
``Simulator(parallel=N)`` (see ``repro.sim.parallel``) against the
serial reference path on bursty contention workloads at 2, 4, and 8
ports.  Each port's DMA issues a burst of contended copy jobs at the
top of every window; the fabric drains the contention, then idles until
the next burst.  That duty cycle is the workload class the sharded
engine exists for: during the burst the per-port shards tick
independently, and across the idle tail the per-shard sleep tracking
and the frozen-horizon jump skip the dead cycles entirely — work the
reference path pays for cycle by cycle.

Every row also runs the serial quiescence-aware fast path
(``fast=True``), the next simpler layer below the sharded engine, and
reports ``parallel_over_fast``: the speedup over reference alone would
hide that serial fast can beat the sharded engine on this very
workload.  The fast column is report-only; no gate reads it.

Every measured run also asserts byte-identical traffic against the
reference, so this bench doubles as a coarse divergence check (the
fine-grained one is ``tests/test_kernel_equivalence.py``).

Results are persisted to ``benchmarks/results/parallel_scaling.txt``
and, machine-readably, ``benchmarks/results/parallel_scaling.json``.
The CI perf-smoke job runs this module with ``PARALLEL_SCALING_WINDOW``
set to a short window and compares the sidecar against the committed
``parallel_scaling.baseline.json``; the 8-port speedup floor of 1.8x
over reference is the acceptance bar for the sharded engine.
"""

import gc
import os
import time

from repro.masters import AxiDma
from repro.platforms import ZCU102
from repro.system import SocSystem

from conftest import publish

PORTS = (2, 4, 8)
WORKERS = int(os.environ.get("PARALLEL_SCALING_WORKERS", "4"))
BURSTS = int(os.environ.get("PARALLEL_SCALING_BURSTS", "4"))
WINDOW = int(os.environ.get("PARALLEL_SCALING_WINDOW", "30000"))
ROUNDS = int(os.environ.get("PARALLEL_SCALING_ROUNDS", "3"))
#: acceptance bar: the 8-port contention workload must clear this
SPEEDUP_FLOOR_8P = 1.8
JOBS_PER_BURST = 2
JOB_BYTES = 2048


def _run_workload(n_ports: int, parallel: int, fast: bool = False):
    """One full bursty-contention run; returns (cycles/sec, signature).

    The measured body covers the whole duty cycle — burst enqueue,
    contended drain, idle tail — for ``BURSTS`` windows.
    """
    soc = SocSystem.build(ZCU102, n_ports=n_ports, period=2048,
                          fast=fast, parallel=parallel)
    dmas = [AxiDma(soc.sim, f"dma{p}", soc.port(p))
            for p in range(n_ports)]
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for burst in range(BURSTS):
            for port, dma in enumerate(dmas):
                base = 0x100_0000 * (port + 1) + 0x10_0000 * burst
                for job in range(JOBS_PER_BURST):
                    dma.enqueue_copy(base + job * 0x8000,
                                     base + 0x800_0000 + job * 0x8000,
                                     JOB_BYTES)
            soc.sim.run(WINDOW)
        elapsed = time.perf_counter() - started
    finally:
        if gc_was_enabled:
            gc.enable()
    signature = tuple(
        (dma.bytes_read, dma.bytes_written, len(dma.jobs_completed),
         dma.error_responses)
        for dma in dmas)
    return BURSTS * WINDOW / elapsed, signature


def _measure(n_ports: int, parallel: int, fast: bool = False,
             rounds: int = ROUNDS):
    """Warm best-of-N throughput; asserts run-to-run determinism."""
    best = 0.0
    signature = None
    for _ in range(rounds):
        rate, outcome = _run_workload(n_ports, parallel, fast)
        best = max(best, rate)
        assert signature is None or signature == outcome
        signature = outcome
    return best, signature


def test_parallel_scaling(benchmark):
    benchmark(lambda: _run_workload(8, WORKERS))

    rows = []
    per_ports = {}
    speedup_8p = None
    reference_8p = None
    for n_ports in PORTS:
        reference, ref_sig = _measure(n_ports, 0)
        fast, fast_sig = _measure(n_ports, 0, fast=True)
        parallel, par_sig = _measure(n_ports, WORKERS)
        # zero divergence, every topology and every layer
        assert fast_sig == ref_sig and par_sig == ref_sig
        speedup = parallel / reference
        parallel_over_fast = parallel / fast
        rows.append(
            f"  {n_ports} ports: reference {reference:>10,.0f} cyc/s   "
            f"fast {fast:>10,.0f} cyc/s   "
            f"parallel={WORKERS} {parallel:>10,.0f} cyc/s   "
            f"vs reference {speedup:.2f}x   "
            f"vs fast {parallel_over_fast:.2f}x")
        per_ports[str(n_ports)] = {
            "reference": reference,
            "fast": fast,
            "parallel": parallel,
            "speedup": speedup,
            "parallel_over_fast": parallel_over_fast,
            "signatures_equal": True,
        }
        if n_ports == 8:
            speedup_8p = speedup
            reference_8p = reference

    text = (
        f"bursty contention, {BURSTS} bursts x {WINDOW} cycle windows, "
        f"{JOBS_PER_BURST} x {JOB_BYTES} B copies per port per burst,\n"
        f"best of {ROUNDS} warm rounds, serial reference and serial fast "
        f"vs parallel={WORKERS} (auto backend):\n"
        + "\n".join(rows))
    publish("parallel_scaling", text, metrics={
        "wall_ms": BURSTS * WINDOW / reference_8p * 1e3,
        "cycles_per_sec": reference_8p,
        "speedup": speedup_8p,
        "workers": WORKERS,
        "bursts": BURSTS,
        "window_cycles": WINDOW,
        "per_ports": per_ports,
        "cpus": os.cpu_count() or 1,
    })
    if benchmark.stats is not None:
        benchmark.extra_info["speedup_8p"] = speedup_8p

    # acceptance bar for the sharded engine (ISSUE: >= 1.8x over the
    # serial reference path on the 8-port workload with 4 workers)
    assert speedup_8p >= SPEEDUP_FLOOR_8P, (
        f"8-port parallel speedup {speedup_8p:.2f}x below the "
        f"{SPEEDUP_FLOOR_8P}x acceptance floor")
    # and the reference path itself must stay plausible
    assert reference_8p > 10_000
