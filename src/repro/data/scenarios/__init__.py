"""Drift zoo: named, seeded stream-scenario generators.

A registry of scenario *families* — gradual, abrupt, recurring,
class-incremental, domain-incremental, label noise, and the paper's
two-domain protocol — each a pure function of ``(dataset, spec)`` producing
the ordinary :class:`~repro.data.streams.StreamScenario` type, so every
family runs unchanged through ``ContinualEvaluator``, ``repro.eval.parallel``
and the fleet tier.  Sits one layer above :mod:`repro.data` in the
architecture DAG: ``repro.data`` never imports it back.

See ``docs/scenarios.md`` for the spec schema, the conformance invariants
every family must pass, and the add-a-family checklist.
"""

from repro.data.scenarios import families as _builtin_families  # noqa: F401 — registers the built-in families
from repro.data.scenarios.registry import (
    SCENARIO_REGISTRY,
    ScenarioFamily,
    build_scenario,
    default_scenario_grid,
    register_family,
    scenario_families,
)
from repro.data.scenarios.spec import (
    ScenarioSpec,
    array_digest,
    dataset_digest,
    scenario_digest,
)

__all__ = [
    "SCENARIO_REGISTRY",
    "ScenarioFamily",
    "ScenarioSpec",
    "array_digest",
    "build_scenario",
    "dataset_digest",
    "default_scenario_grid",
    "register_family",
    "scenario_digest",
    "scenario_families",
]
