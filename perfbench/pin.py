"""Regenerate ``pins.json``: the outputs pinned per seed.

Pins are the reference-kernel signatures of ``fig5_saturated`` (no seed)
and ``bursty8_copy``, and the verdict digest of
``campaign_faults_churn``, for the default seed 0 and for the held-back
seed, which is kept out of benchmark development so that a later claim
can be checked on data held back from it.  Regenerate only after an
intended change to the model's timing:

    python3 perfbench/pin.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

HELD_BACK_SEED = 104729
SEEDS = (0, HELD_BACK_SEED)


def main() -> None:
    size = wl.SIZES["full"]
    pins = {
        "held_back_seed": HELD_BACK_SEED,
        "fig5_saturated": {"signature": wl.run_leg(
            "fig5_saturated", "reference", 0, size).signature},
        "bursty8_copy": {},
        "campaign_faults_churn": {},
    }
    for seed in SEEDS:
        pins["bursty8_copy"][str(seed)] = wl.run_leg(
            "bursty8_copy", "reference", seed, size).signature
        result = wl.run_pass(wl.campaign_scenarios(seed))
        if not result.ok:
            raise SystemExit(f"seed {seed}: campaign verdicts "
                             f"{result.counts}; refusing to pin")
        pins["campaign_faults_churn"][str(seed)] = result.digest
    lines = [f" {json.dumps(key)}: {json.dumps(value)}"
             for key, value in pins.items()]
    (HERE / "pins.json").write_text("{\n" + ",\n".join(lines) + "\n}\n",
                                    encoding="utf-8")


if __name__ == "__main__":
    main()
