"""Layer-ledger benchmark: three workloads, every metric by name and unit.

Run from the repository root:

    python3 perfbench/run.py --workload fig5_saturated --seed 0 \
        --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics (``ledger.END_TO_END``)
on one CPU: the process pins itself (and so its set-up probes) to the
last CPU it may use, so the host-speed samples (``hostspeed.py``) and
the intervals they calibrate run on the same CPU;
``--trace 1`` runs one untraced and one traced unit of the workload and
reports the per-layer metrics (``ledger.PER_LAYER``), writing the spans
to ``.perfbench/``.  Every invocation also regenerates the Fig. 3 points
and compares them with EXPERIMENTS.md.  The last line of standard output
is the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPERIMENTS = ROOT / "EXPERIMENTS.md"
PINS = HERE / "pins.json"
TRACE_DIR = ROOT / ".perfbench"

#: fresh processes timed for setup_s, after one untimed warm-up that
#: also writes the bytecode caches
SETUP_PROBES = 7

sys.path.insert(0, str(HERE))
import ledger  # noqa: E402
from hostspeed import HostSpeed, calibrated  # noqa: E402


def host_descriptor(host: HostSpeed, cpus: int) -> dict:
    """Where the numbers were taken; metadata beside every result."""
    gil = getattr(sys, "_is_gil_enabled", None)
    return {
        "cpus": cpus,
        "ran_on_cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "gil_enabled": True if gil is None else bool(gil()),
        **host.describe(),
    }


def measure_setup(workload: str, seed: int, tiny: bool,
                  host: HostSpeed) -> float:
    """Median wall time of fresh processes that import and build, each
    calibrated by host samples taken right before and after it."""
    command = [sys.executable, str(HERE / "setup_probe.py"), workload,
               str(seed)] + (["--tiny"] if tiny else [])
    times, raw = [], []
    before = host.sample()
    for probe in range(1 + (1 if tiny else SETUP_PROBES)):
        began = time.perf_counter()
        subprocess.run(command, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - began
        after = host.sample()
        if probe:
            times.append(calibrated(seconds, (before + after) / 2))
            raw.append(seconds)
        before = after
    print(f"info raw setup_s = {statistics.median(raw)} s (uncalibrated)")
    return statistics.median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[name for name, __ in ledger.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-check size: tiny windows, no pins")
    args = parser.parse_args(argv)
    missing = [str(path) for path in (SRC / "repro", EXPERIMENTS)
               if not path.exists()]
    if missing:
        print(f"error: the benchmark needs {', '.join(missing)}; run it "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    import workloads

    size = workloads.SIZES["tiny" if args.tiny else "full"]
    cpus = os.sched_getaffinity(0)
    if not args.trace:
        os.sched_setaffinity(0, {max(cpus)})
    host = HostSpeed()
    setup_s = measure_setup(args.workload, args.seed, args.tiny, host)
    ops = measure.Ops()
    for name, error in workloads.fig3_checks(EXPERIMENTS):
        ops.record(name, error)
    pins = json.loads(PINS.read_text(encoding="utf-8"))
    run_id = f"{args.workload}-seed{args.seed}-{os.getpid()}"
    campaign = args.workload == "campaign_faults_churn"
    if campaign:
        pin = measure.campaign_pin(args.seed, args.tiny, pins)
    else:
        pin = measure.fabric_pin(args.workload, args.seed, args.tiny, pins)
    print(f"info pinned = {pin is not None}")
    if args.trace:
        if campaign:
            values = measure.trace_campaign(args.seed, size, ops, pin,
                                            run_id, TRACE_DIR)
        else:
            values = measure.trace_fabric(args.workload, args.seed, size,
                                          ops, pin, run_id, TRACE_DIR)
        specs = [(name, unit) for name, unit, *__ in ledger.PER_LAYER]
        host.sample()
    else:
        if campaign:
            values = measure.measure_campaign(args.seed, args.seconds, size,
                                              ops, pin, host)
        else:
            values = measure.measure_fabric(args.workload, args.seed,
                                            args.seconds, size, ops, pin,
                                            host)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        error_rate = len(ops.failures) / ops.attempted
        values["success_pct"] = 100.0 * (1.0 - error_rate)
        print(f"info error_rate = {error_rate} ({len(ops.failures)} of "
              f"{ops.attempted})")
        specs = [(name, unit) for name, unit, *__ in ledger.END_TO_END]
    print("host " + json.dumps(host_descriptor(host, len(cpus)),
                               sort_keys=True))
    for failure in ops.failures:
        print(f"FAILED {failure}")
    metrics = {}
    for name, unit in specs:
        if name in values:
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name} {values[name]} {unit}")
    print(json.dumps({"correct": not ops.failures
                      and len(metrics) == len(specs),
                      "attempted": ops.attempted,
                      "failed": len(ops.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
