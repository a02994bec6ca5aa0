"""Tiny-size self-check: every named metric is declared and emitted.

Checks that ``BENCHMARK.json`` and ``ledger.py`` name the same
workloads and metrics (with the same units and directions), then runs
every workload at the tiny size with ``--trace 0`` and ``--trace 1`` and
checks that each run is correct and emits exactly the declared metrics.
Exits non-zero on the first mismatch:

    python3 perfbench/selfcheck.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402


def declared_matches_ledger(spec: dict) -> list:
    problems = []
    if spec["workloads"] != [{"name": name, "why": why}
                             for name, why in ledger.WORKLOADS]:
        problems.append("workloads differ from ledger.WORKLOADS")
    want = [{"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, *__ in ledger.END_TO_END]
    if spec["end_to_end"] != want:
        problems.append("end_to_end differs from ledger.END_TO_END")
    want = [{"name": name, "unit": unit, "better": better}
            for name, unit, better, __, __ in ledger.PER_LAYER]
    if spec["per_layer"] != want:
        problems.append("per_layer differs from ledger.PER_LAYER")
    return problems


def emitted_matches(spec: dict, workload: str, trace: int) -> list:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", "0", "--seconds", "1", "--trace", str(trace),
               "--tiny"]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=False)
    tag = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{tag}: exit {out.returncode}: {out.stderr[-2000:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{tag}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{tag}: not correct: {out.stdout[-2000:]}")
    rows = spec["per_layer" if trace else "end_to_end"]
    want = {row["name"]: row["unit"] for row in rows}
    got = {name: value["unit"] for name, value in result["metrics"].items()}
    if got != want:
        problems.append(f"{tag}: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, or units "
                        "differ")
    for name, value in result["metrics"].items():
        if not isinstance(value["value"], (int, float)):
            problems.append(f"{tag}: {name} is not a number")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = declared_matches_ledger(spec)
    for workload, __ in ledger.WORKLOADS:
        for trace in (0, 1):
            problems += emitted_matches(spec, workload, trace)
            print(f"checked {workload} --trace {trace}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
