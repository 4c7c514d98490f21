"""Correctness tooling: sim-lint, sim-units and the runtime sanitizer.

The GE reproduction's headline numbers rest on physical invariants the
paper states but Python cannot express in types: per-round dynamic
power never exceeds the budget ``H`` (§III-D), energy is the exact
integral of the piecewise-constant speed timelines (§II-B), and the
aggregate quality ``Q = Σf(c_j)/Σf(p_j)`` stays in ``[0, 1]`` and never
dips below ``Q_GE`` outside a compensation episode (§III-C).  This
package enforces them three ways:

* **sim-lint** (:mod:`repro.check.linter` / :mod:`repro.check.rules`) —
  an AST linter with simulator-domain rules (SIM001–SIM009): no
  wall-clock or unseeded randomness inside the deterministic layers, no
  bare float equality in scheduler code, layering hygiene, frozen
  config, fully annotated public API, no unordered set iteration in
  scheduling code.  Run ``python -m repro.check lint src/repro``.

* **sim-units** (:mod:`repro.check.units`) — a dimensional-analysis
  pass (UNITS001–UNITS005) over the :mod:`repro.units` vocabulary of
  ``Annotated[float, Unit("W")]`` aliases.  It infers units through
  locals and arithmetic (``W·s → J``, ``unit/(unit/s) → s``) and flags
  mismatched additions, comparisons, call arguments, returns and
  assignments.  Run ``python -m repro.check units src/repro``; the
  ``--coverage`` flag reports per-module annotation coverage.

* **the sanitizer** (:mod:`repro.check.sanitizer`) — an opt-in
  :class:`Sanitizer` sink (or :class:`SanitizingTracer`) that rides the
  :mod:`repro.obs` telemetry stream and fails fast the moment a run violates the power-budget,
  speed, failed-core, energy, volume, clock or quality invariants; its
  machine audit is also ``validate_run``'s.  Enable with ``--sanitize``.

``python -m repro.check gate src/repro`` runs both static passes — the
default CI gate.  See ``docs/static-analysis.md`` for the catalogue.
"""

from __future__ import annotations

from repro.check.linter import Finding, lint_paths, lint_source
from repro.check.rules import RULES, Rule, rule_catalog
from repro.check.sanitizer import Sanitizer, SanitizerViolation, SanitizingTracer
from repro.check.units import UNITS_RULES, UnitsReport, check_paths, check_source

__all__ = [
    "Finding",
    "RULES",
    "Rule",
    "Sanitizer",
    "SanitizerViolation",
    "SanitizingTracer",
    "UNITS_RULES",
    "UnitsReport",
    "check_paths",
    "check_source",
    "lint_paths",
    "lint_source",
    "rule_catalog",
]
