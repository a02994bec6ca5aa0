"""Oracle twins on the fast kernel: the invariant and the leg accounting.

``evaluate_scenario`` runs the reference kernel once per scenario and
every comparison twin — the fault-free ``Scenario.baseline()`` of the
containment and isolation oracles, the churn-free twin of the
stale-window oracle — on the fast kernel.  That is sound only while the
fast kernel reproduces the reference bit for bit on every twin, so this
file pins it:

* tier-1: one twin per (grid, family, fault kind, churn present, twin
  kind) class of the registered ``faults`` and ``churn`` grids, plus one
  8-domain ``isolation`` row per fault mix;
* ``slow`` (run nightly): every twin of the ``faults``, ``churn`` and
  ``isolation`` grids;
* the leg accounting: exactly one reference-kernel leg per scenario,
  run first, and every twin leg on the fast kernel.
"""

from dataclasses import replace

import pytest

from repro.verify import (
    DEFAULT_CHECKS,
    evaluate_scenario,
    fingerprint_digest,
    grid_scenarios,
    run_scenario,
)
from repro.verify import oracles
from repro.verify.oracles import containment_bound_for


def twins(scenario, checks):
    """The twins ``evaluate_scenario`` runs for a scenario, by kind."""
    out = []
    if (("containment" in checks
         and containment_bound_for(scenario) is not None)
            or ("isolation" in checks and scenario.is_tenanted
                and scenario.rogue_indices)):
        out.append(("baseline", scenario.baseline()))
    if "isolation" in checks and scenario.churn is not None:
        out.append(("churn-free", replace(scenario, churn=None)))
    return out


def fault_kind(scenario):
    if scenario.memory.kind != "none":
        return f"mem:{scenario.memory.kind}"
    modes = sorted({scenario.ports[i].fault.mode
                    for i in scenario.rogue_indices})
    return "+".join(modes) or "none"


def grid_twins(name):
    """(id, class, twin) for every twin of a registered grid's rows."""
    scenarios, checks = grid_scenarios(name)
    out = []
    for row, scenario in enumerate(scenarios):
        for kind, twin in twins(scenario, checks):
            cls = (name, scenario.family, fault_kind(scenario),
                   scenario.churn is not None, kind)
            out.append((f"{name}-{row}-{kind}", cls, twin))
    return out


def representatives():
    """First twin of each class; isolation rows only at 8 domains."""
    seen, out = set(), []
    for name in ("faults", "churn", "isolation"):
        for ident, cls, twin in grid_twins(name):
            if name == "isolation" and len(twin.ports) > 8:
                continue
            if cls not in seen:
                seen.add(cls)
                out.append(pytest.param(twin, id=ident))
    return out


def all_twins():
    return [pytest.param(twin, id=ident)
            for name in ("faults", "churn", "isolation")
            for ident, __, twin in grid_twins(name)]


def assert_fast_matches_reference(twin):
    assert (fingerprint_digest(run_scenario(twin, fast=True))
            == fingerprint_digest(run_scenario(twin, fast=False)))


@pytest.mark.parametrize("twin", representatives())
def test_twin_fast_matches_reference(twin):
    assert_fast_matches_reference(twin)


@pytest.mark.slow
@pytest.mark.parametrize("twin", all_twins())
def test_every_grid_twin_fast_matches_reference(twin):
    assert_fast_matches_reference(twin)


def _row(name, predicate):
    scenarios, __ = grid_scenarios(name)
    return next(s for s in scenarios if predicate(s))


@pytest.mark.parametrize("name,predicate,expected", [
    ("faults", lambda s: containment_bound_for(s) is not None,
     ["baseline"]),
    ("isolation", lambda s: (len(s.ports) == 8
                             and len(s.rogue_indices) > 1),
     ["baseline"]),
    ("churn", lambda s: s.rogue_indices and len(s.ports) == 4,
     ["baseline", "churn-free"]),
], ids=["containment", "tenanted-multi-rogue", "churn"])
def test_one_reference_leg_per_scenario(monkeypatch, name, predicate,
                                        expected):
    scenario = _row(name, predicate)
    legs = []
    real = oracles.run_scenario

    def recording(run, fast, **kwargs):
        legs.append((run, fast, kwargs.get("parallel", 0),
                     kwargs.get("tlm", False)))
        return real(run, fast=fast, **kwargs)

    monkeypatch.setattr(oracles, "run_scenario", recording)
    evaluate_scenario(scenario, checks=DEFAULT_CHECKS, parallel=2)

    reference_legs = [i for i, (__, fast, parallel, tlm) in enumerate(legs)
                      if not fast and not parallel and not tlm]
    assert reference_legs == [0]
    assert legs[0][0] == scenario
    twin_legs = [(run, fast) for run, fast, __, ___ in legs
                 if run != scenario]
    expected_twins = twins(scenario, DEFAULT_CHECKS)
    assert [kind for kind, __ in expected_twins] == expected
    assert [run for run, __ in twin_legs] == [
        twin for __, twin in expected_twins]
    assert all(fast for __, fast in twin_legs)
