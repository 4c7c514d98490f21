"""The sim-lint rule catalogue (SIM001–SIM009).

Each rule guards a property the simulator's correctness argument
depends on (see ``docs/static-analysis.md`` for the full rationale and
the paper sections each rule protects):

======= ==============================================================
SIM001  No wall-clock reads inside the deterministic layers.
SIM002  No unseeded randomness outside :mod:`repro.sim.rng`.
SIM003  No bare ``==`` / ``!=`` against floats in numeric layers.
SIM004  Package layering: lower layers never import higher ones.
SIM005  No mutation of frozen :class:`repro.config.SimulationConfig`.
SIM006  Public functions must be fully annotated.
SIM007  No ``print`` in library code (use the tracer or the CLI).
SIM008  No silently swallowed broad exceptions.
SIM009  No unordered set iteration feeding scheduling decisions.
======= ==============================================================

The dimensional-analysis rules (UNITS001–UNITS005) live in
:mod:`repro.check.units`; they share this package's suppression and
CLI machinery but run as a whole-program pass.

Rules are plain data (:class:`Rule`) over two callables so the engine
in :mod:`repro.check.linter` stays rule-agnostic.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional

from repro.check.linter import Finding, ModuleContext

__all__ = ["RULES", "Rule", "SIM001_MODULE_ALLOWLIST", "rule_catalog"]


@dataclass(frozen=True)
class Rule:
    """One sim-lint rule: metadata plus its predicate and checker."""

    code: str
    name: str
    summary: str
    rationale: str
    applies: Callable[[ModuleContext], bool]
    check: Callable[[ModuleContext], Iterable[Finding]]


# ---------------------------------------------------------------------------
# Shared helpers: import-alias resolution
# ---------------------------------------------------------------------------


def _collect_aliases(tree: ast.Module, module: str) -> Dict[str, str]:
    """Map local names to the canonical dotted name they refer to.

    ``import time as _time`` → ``{"_time": "time"}``;
    ``from datetime import datetime`` → ``{"datetime": "datetime.datetime"}``;
    ``from . import engine`` (in ``repro.sim.x``) → ``{"engine": "repro.sim.engine"}``.
    """
    aliases: Dict[str, str] = {}
    package_parts = module.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                prefix = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(prefix + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{base}.{alias.name}" if base else alias.name
    return aliases


def _dotted(node: ast.AST) -> Optional[str]:
    """Flatten a ``Name``/``Attribute`` chain into ``"a.b.c"``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _canonical(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve a call target through the module's import aliases."""
    dotted = _dotted(node)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    resolved = aliases.get(head)
    if resolved is None:
        return dotted
    return f"{resolved}.{rest}" if rest else resolved


# ---------------------------------------------------------------------------
# SIM001 — wall-clock reads in deterministic code
# ---------------------------------------------------------------------------

#: Layers whose behaviour must be a pure function of (config, seed).
#: ``repro.obs`` is included: the tracer only observes simulation state,
#: so a wall-clock read there would leak host timing into artifacts that
#: must be reproducible bit-for-bit.
_DETERMINISTIC = (
    "repro.sim",
    "repro.server",
    "repro.core",
    "repro.power",
    "repro.quality",
    "repro.workload",
    "repro.metrics",
    "repro.obs",
)

#: SIM001 module allowlist — the one sanctioned home for a host-clock
#: read: ``repro.obs.runs``, the run registry, stamps stored artifacts
#: with a wall-clock ``created_unix`` so humans can order store entries;
#: the stamp is storage metadata, applied after the run finished, and
#: never enters simulated time or a trace.
#:
#: Host timing of a run is measured from outside, by perfbench's ledger
#: (``perfbench/run.py --trace 1``), so a traced run stays a pure
#: function of config, seed and scheduler.  The *streaming* telemetry
#: modules (``repro.obs.stream``, ``repro.obs.slo``) are deliberately
#: not exempt: windowing and SLO evaluation are over simulated seconds
#: only.  Documented in ``docs/static-analysis.md``.
SIM001_MODULE_ALLOWLIST: FrozenSet[str] = frozenset({"repro.obs.runs"})

_WALL_CLOCK: FrozenSet[str] = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)


def _check_wall_clock(ctx: ModuleContext) -> Iterable[Finding]:
    aliases = _collect_aliases(ctx.tree, ctx.module)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _canonical(node.func, aliases)
        if name in _WALL_CLOCK:
            yield ctx.finding(
                "SIM001",
                node,
                f"wall-clock read `{name}()` in deterministic simulator code; "
                "use `sim.now` (simulated time) instead",
            )


# ---------------------------------------------------------------------------
# SIM002 — unseeded randomness
# ---------------------------------------------------------------------------

#: numpy.random attributes that are constructors, not the legacy global RNG.
_NP_RANDOM_OK: FrozenSet[str] = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator",
     "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}
)


def _check_randomness(ctx: ModuleContext) -> Iterable[Finding]:
    aliases = _collect_aliases(ctx.tree, ctx.module)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _canonical(node.func, aliases)
        if name is None:
            continue
        if name == "random" or name.startswith("random."):
            yield ctx.finding(
                "SIM002",
                node,
                f"stdlib `{name}()` draws from process-global state; use a "
                "named stream from `repro.sim.rng.RandomStreams`",
            )
        elif name == "numpy.random.default_rng" and not node.args and not node.keywords:
            yield ctx.finding(
                "SIM002",
                node,
                "`numpy.random.default_rng()` without a seed is entropy-seeded "
                "and unreproducible; pass a seed or use `repro.sim.rng`",
            )
        elif name.startswith("numpy.random.") and name.split(".")[-1] not in _NP_RANDOM_OK:
            yield ctx.finding(
                "SIM002",
                node,
                f"legacy global-state RNG call `{name}()`; use a seeded "
                "`numpy.random.Generator` via `repro.sim.rng.RandomStreams`",
            )


# ---------------------------------------------------------------------------
# SIM003 — bare float equality
# ---------------------------------------------------------------------------

#: Layers doing continuous arithmetic (speeds, watts, joules, quality).
_NUMERIC = (
    "repro.sim",
    "repro.server",
    "repro.core",
    "repro.power",
    "repro.quality",
    "repro.analysis",
    "repro.mixed",
)


def _is_floaty(node: ast.AST) -> bool:
    """Conservatively: does this expression *syntactically* involve floats?

    ``float("inf")`` / ``float("nan")`` style sentinels are excluded:
    comparing against infinity is exact, not a rounding hazard.
    """
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_floaty(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_floaty(node.left) or _is_floaty(node.right)
    if isinstance(node, ast.Call):
        target = _dotted(node.func)
        if target == "float":
            return not (
                len(node.args) == 1
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            )
        return target in {"math.sqrt", "math.exp", "math.log"}
    return False


def _check_float_equality(ctx: ModuleContext) -> Iterable[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Compare):
            continue
        comparators = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, comparators, comparators[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _is_floaty(left) or _is_floaty(right):
                yield ctx.finding(
                    "SIM003",
                    node,
                    "exact `==`/`!=` against a float; accumulated rounding makes "
                    "this unstable — use `math.isclose` or an epsilon guard "
                    "(cf. `_VOLUME_EPS` in repro.server.core)",
                )
                break


# ---------------------------------------------------------------------------
# SIM004 — package layering
# ---------------------------------------------------------------------------

#: Allowed `repro.<segment>` imports per package; ``None`` = unrestricted.
#: Order mirrors the architecture diagram in ``docs/architecture.md``:
#: sim/obs/power/quality at the bottom, experiments/cli at the top.
#: ``repro.units`` is the stdlib-only unit vocabulary: pure type
#: aliases plus the dimension algebra, no simulator imports.  Every
#: layer may depend on it (annotations are the whole point), so it
#: appears in every allowlist below and allows nothing but itself.
_LAYER_ALLOW: Dict[str, Optional[FrozenSet[str]]] = {
    "units": frozenset({"units"}),
    "errors": frozenset({"errors"}),
    "sim": frozenset({"sim", "errors", "units"}),
    "obs": frozenset({"obs", "errors", "units"}),
    "power": frozenset({"power", "errors", "units"}),
    "quality": frozenset({"quality", "errors", "units"}),
    "workload": frozenset({"workload", "errors", "sim", "config", "units"}),
    # chaos is pure disturbance data + event-heap injection: it may see
    # the sim kernel but never the schedulers it perturbs (the harness
    # hands itself to the injector at runtime).
    "chaos": frozenset({"chaos", "errors", "sim", "units"}),
    "metrics": frozenset(
        {"metrics", "errors", "workload", "quality", "obs", "units"}
    ),
    "config": frozenset(
        {"config", "errors", "power", "quality", "sim", "workload", "units",
         "chaos"}
    ),
    "server": frozenset(
        {"server", "errors", "sim", "obs", "power", "quality",
         "workload", "metrics", "config", "units", "chaos"}
    ),
    "core": frozenset(
        {"core", "server", "errors", "sim", "obs", "power", "quality",
         "workload", "metrics", "config", "units"}
    ),
    "analysis": frozenset(
        {"analysis", "errors", "power", "quality", "workload", "sim",
         "config", "units"}
    ),
    "mixed": frozenset(
        {"mixed", "core", "server", "errors", "sim", "obs", "power",
         "quality", "workload", "metrics", "config", "units"}
    ),
    "baselines": frozenset(
        {"baselines", "core", "server", "errors", "sim", "obs", "power",
         "quality", "workload", "metrics", "config", "units"}
    ),
    "check": frozenset({"check", "errors", "obs", "config", "units"}),
    # experiments, cli, validation: top of the stack, unrestricted.
}


def _type_checking_imports(tree: ast.Module) -> FrozenSet[int]:
    """Ids of import nodes under ``if TYPE_CHECKING:`` blocks.

    Such imports never execute at runtime, so they do not count as
    layering edges — annotating ``repro.obs`` with higher-layer types
    keeps it import-light.
    """
    guarded: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = _dotted(node.test)
        if test not in {"TYPE_CHECKING", "typing.TYPE_CHECKING"}:
            continue
        for child in node.body:
            for sub in ast.walk(child):
                if isinstance(sub, (ast.Import, ast.ImportFrom)):
                    guarded.add(id(sub))
    return frozenset(guarded)


def _imported_repro_modules(ctx: ModuleContext) -> Iterable[tuple[ast.AST, str]]:
    package_parts = ctx.module.split(".")[:-1]
    guarded = _type_checking_imports(ctx.tree)
    for node in ast.walk(ctx.tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                prefix = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(prefix + ([base] if base else []))
            if base == "repro" or base.startswith("repro."):
                yield node, base


def _layer_of(module: str) -> Optional[str]:
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    return parts[1]


#: The fleet-orchestration module: process fan-out.  Confined on
#: *both* sides — only the top-of-stack layers listed in
#: :data:`_FLEET_IMPORTERS` may import it (the deterministic simulator
#: must never grow a dependency on process orchestration), and it is
#: the only module allowed to import ``multiprocessing`` at all (a
#: stray Pool in a lower layer would fork the simulator's state and
#: silently break per-seed reproducibility).
_FLEET_MODULES: FrozenSet[str] = frozenset({"repro.experiments.fleet"})

#: Module prefixes allowed to import the fleet module: the experiment
#: drivers (the fleet module among them) and the CLI.
_FLEET_IMPORTERS = ("repro.experiments", "repro.cli")


def _may_import_fleet(module: str) -> bool:
    return any(
        module == prefix or module.startswith(prefix + ".")
        for prefix in _FLEET_IMPORTERS
    )


def _fleet_imports(ctx: ModuleContext) -> Iterable[tuple[ast.AST, str]]:
    """Import nodes pulling in a fleet module, via any spelling.

    Catches ``import repro.experiments.fleet``, ``from
    repro.experiments.fleet import X`` *and* ``from repro.experiments
    import fleet`` — the last resolves the submodule through the alias
    path the plain layering walk treats as a ``repro.experiments`` edge.
    """
    package_parts = ctx.module.split(".")[:-1]
    guarded = _type_checking_imports(ctx.tree)
    for node in ast.walk(ctx.tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _FLEET_MODULES:
                    yield node, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                prefix = package_parts[: len(package_parts) - (node.level - 1)]
                base = ".".join(prefix + ([base] if base else []))
            if base in _FLEET_MODULES:
                yield node, base
                continue
            for alias in node.names:
                full = f"{base}.{alias.name}" if base else alias.name
                if full in _FLEET_MODULES:
                    yield node, full


def _multiprocessing_imports(ctx: ModuleContext) -> Iterable[ast.AST]:
    guarded = _type_checking_imports(ctx.tree)
    for node in ast.walk(ctx.tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.Import):
            if any(
                alias.name == "multiprocessing"
                or alias.name.startswith("multiprocessing.")
                for alias in node.names
            ):
                yield node
        elif isinstance(node, ast.ImportFrom) and not node.level:
            base = node.module or ""
            if base == "multiprocessing" or base.startswith("multiprocessing."):
                yield node


def _check_layering(ctx: ModuleContext) -> Iterable[Finding]:
    yield from _check_fleet_confinement(ctx)
    layer = _layer_of(ctx.module)
    if layer is None:
        return
    allowed = _LAYER_ALLOW.get(layer)
    if allowed is None:
        return
    for node, imported in _imported_repro_modules(ctx):
        target = _layer_of(imported)
        if target is None:
            # `from repro import X` / `import repro`: pulls the whole
            # top-level namespace — only the top layers may do that.
            yield ctx.finding(
                "SIM004",
                node,
                f"`{ctx.module}` (layer `{layer}`) imports the top-level "
                "`repro` namespace; import the concrete module instead",
            )
            continue
        if target not in allowed:
            yield ctx.finding(
                "SIM004",
                node,
                f"layering violation: `{ctx.module}` (layer `{layer}`) must "
                f"not import `repro.{target}` (allowed: "
                f"{', '.join(sorted(allowed))})",
            )


def _check_fleet_confinement(ctx: ModuleContext) -> Iterable[Finding]:
    """The fleet-specific half of SIM004 (see :data:`_FLEET_MODULES`).

    The importer check runs only on modules without a
    :data:`_LAYER_ALLOW` entry (``repro``, ``repro.validation``): no
    listed layer may import ``repro.experiments``, so the layering
    check already reports a layer's fleet import, once.
    """
    if _layer_of(ctx.module) not in _LAYER_ALLOW and not _may_import_fleet(ctx.module):
        for node, imported in _fleet_imports(ctx):
            yield ctx.finding(
                "SIM004",
                node,
                f"fleet confinement: `{ctx.module}` must not import "
                f"`{imported}`; only `repro.experiments.*` and "
                "`repro.cli` may depend on process orchestration",
            )
    if ctx.module not in _FLEET_MODULES:
        for node in _multiprocessing_imports(ctx):
            yield ctx.finding(
                "SIM004",
                node,
                f"`{ctx.module}` imports `multiprocessing`; process "
                "fan-out is confined to repro.experiments.fleet so the "
                "simulator stays a pure function of (config, seed)",
            )


# ---------------------------------------------------------------------------
# SIM005 — frozen SimulationConfig mutation
# ---------------------------------------------------------------------------

_CONFIG_NAMES = frozenset({"config", "cfg"})

_CONFIG_FIELDS_FALLBACK: FrozenSet[str] = frozenset(
    {
        "arrival_rate", "horizon", "demand_alpha", "demand_min", "demand_max",
        "window_low", "window_high", "m", "budget", "power_a", "power_beta",
        "units_per_ghz_second", "discrete_levels", "top_speed", "quality_c",
        "quality_shape", "q_ge", "static_power_per_core", "core_power_scales",
        "quantum", "counter_threshold", "critical_load_fraction", "seed",
    }
)

_config_fields_cache: Optional[FrozenSet[str]] = None


def _config_fields() -> FrozenSet[str]:
    """Field names of :class:`SimulationConfig` (imported lazily)."""
    global _config_fields_cache
    if _config_fields_cache is None:
        try:
            import dataclasses

            from repro.config import SimulationConfig

            _config_fields_cache = frozenset(
                f.name for f in dataclasses.fields(SimulationConfig)
            )
        except Exception:  # pragma: no cover - only if repro.config breaks
            _config_fields_cache = _CONFIG_FIELDS_FALLBACK
    return _config_fields_cache


def _ends_in_config(node: ast.AST) -> bool:
    """Is this expression ``config`` / ``cfg`` / ``<anything>.config``?"""
    if isinstance(node, ast.Name):
        return node.id in _CONFIG_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _CONFIG_NAMES
    return False


def _check_config_mutation(ctx: ModuleContext) -> Iterable[Finding]:
    fields = _config_fields()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name == "object.__setattr__":
                yield ctx.finding(
                    "SIM005",
                    node,
                    "`object.__setattr__` bypasses frozen-dataclass protection; "
                    "derive variants with `SimulationConfig.with_overrides`",
                )
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and target.attr in fields
                and _ends_in_config(target.value)
            ):
                yield ctx.finding(
                    "SIM005",
                    node,
                    f"assignment to frozen config field `{target.attr}`; "
                    "use `SimulationConfig.with_overrides` to derive a variant",
                )


# ---------------------------------------------------------------------------
# SIM006 — fully annotated public API
# ---------------------------------------------------------------------------


def _is_staticmethod(func: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in getattr(func, "decorator_list", [])
    )


def _missing_annotations(
    func: ast.FunctionDef | ast.AsyncFunctionDef, *, is_method: bool
) -> List[str]:
    missing: List[str] = []
    args = func.args
    positional = list(args.posonlyargs) + list(args.args)
    if is_method and not _is_staticmethod(func) and positional:
        positional = positional[1:]  # self / cls
    for arg in positional + list(args.kwonlyargs):
        if arg.annotation is None:
            missing.append(arg.arg)
    for star in (args.vararg, args.kwarg):
        if star is not None and star.annotation is None:
            missing.append(("*" if star is args.vararg else "**") + star.arg)
    if func.returns is None and func.name != "__init__":
        missing.append("return")
    return missing


def _check_annotations(ctx: ModuleContext) -> Iterable[Finding]:
    def visit(body: Iterable[ast.stmt], *, in_class: bool, private_scope: bool):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(
                    node.body,
                    in_class=True,
                    private_scope=private_scope or node.name.startswith("_"),
                )
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                public = not node.name.startswith("_") or node.name == "__init__"
                if public and not private_scope:
                    missing = _missing_annotations(node, is_method=in_class)
                    if missing:
                        yield ctx.finding(
                            "SIM006",
                            node,
                            f"public function `{node.name}` is missing type "
                            f"annotations for: {', '.join(missing)}",
                        )
                # Nested defs are implementation details — not visited.

    yield from visit(ctx.tree.body, in_class=False, private_scope=False)


# ---------------------------------------------------------------------------
# SIM007 — print in library code
# ---------------------------------------------------------------------------

#: Modules whose *job* is terminal output.
_PRINT_OK = ("repro.cli", "repro.check", "repro.experiments", "repro.validation")


def _check_print(ctx: ModuleContext) -> Iterable[Finding]:
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "print"
        ):
            yield ctx.finding(
                "SIM007",
                node,
                "`print` in library code; report through the tracer/metrics "
                "(repro.obs) or return data for the CLI layer to present",
            )


# ---------------------------------------------------------------------------
# SIM008 — silently swallowed broad exceptions
# ---------------------------------------------------------------------------


def _is_broad(handler_type: Optional[ast.expr]) -> bool:
    if handler_type is None:
        return True
    name = _dotted(handler_type)
    return name in {"Exception", "BaseException"}


def _body_is_silent(body: List[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or `...`
        return False
    return True


def _check_silent_except(ctx: ModuleContext) -> Iterable[Finding]:
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.ExceptHandler)
            and _is_broad(node.type)
            and _body_is_silent(node.body)
        ):
            yield ctx.finding(
                "SIM008",
                node,
                "broad exception silently swallowed; simulator faults must "
                "surface or energy/quality accounting silently corrupts",
            )


# ---------------------------------------------------------------------------
# SIM009 — unordered set/dict iteration feeding scheduling decisions
# ---------------------------------------------------------------------------

#: Layers whose iteration order becomes scheduling order: the policy
#: code (targets, plans, power splits) and the event kernel.
_ORDER_SENSITIVE = ("repro.core", "repro.sim")

#: Set methods that return another set (propagate set-ness).
_SET_RETURNING_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Calls whose output order is the input's iteration order.
_ORDER_MATERIALIZERS = frozenset({"list", "tuple", "enumerate", "iter"})


def _set_annotation(node: Optional[ast.expr]) -> bool:
    """Is this annotation ``Set[...]`` / ``set[...]`` / ``FrozenSet[...]``?"""
    if isinstance(node, ast.Subscript):
        node = node.value
    dotted = _dotted(node) if node is not None else None
    return dotted is not None and dotted.rsplit(".", 1)[-1] in {
        "set", "Set", "frozenset", "FrozenSet", "MutableSet", "AbstractSet",
    }


def _collect_set_names(tree: ast.Module) -> tuple[FrozenSet[str], FrozenSet[str]]:
    """Names / attributes bound to set-typed values anywhere in the module.

    Iterated to a fixpoint so ``a = set(); b = a | other`` marks both.
    """
    names: set[str] = set()
    attrs: set[str] = set()

    def is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted in {"set", "frozenset"}:
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_RETURNING_METHODS
            ):
                return is_set_expr(node.func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return is_set_expr(node.left) or is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, ast.Attribute):
            return node.attr in attrs
        return False

    changed = True
    while changed:
        changed = False
        for node in ast.walk(tree):
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign) and is_set_expr(node.value):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and (
                _set_annotation(node.annotation)
                or (node.value is not None and is_set_expr(node.value))
            ):
                targets = [node.target]
            elif isinstance(node, ast.arg) and _set_annotation(node.annotation):
                if node.arg not in names:
                    names.add(node.arg)
                    changed = True
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id not in names:
                    names.add(target.id)
                    changed = True
                elif isinstance(target, ast.Attribute) and target.attr not in attrs:
                    attrs.add(target.attr)
                    changed = True
    return frozenset(names), frozenset(attrs)


def _check_unordered_iteration(ctx: ModuleContext) -> Iterable[Finding]:
    names, attrs = _collect_set_names(ctx.tree)

    def is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted in {"set", "frozenset"}:
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_RETURNING_METHODS
            ):
                return is_set_expr(node.func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return is_set_expr(node.left) or is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in names
        if isinstance(node, ast.Attribute):
            return node.attr in attrs
        return False

    def finding_at(node: ast.AST) -> Finding:
        return ctx.finding(
            "SIM009",
            node,
            "iteration over an unordered set feeds scheduling decisions; "
            "hash order varies across runs/platforms — wrap in `sorted(...)` "
            "(scheduling order must be deterministic per seed)",
        )

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.For) and is_set_expr(node.iter):
            yield finding_at(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                if is_set_expr(gen.iter):
                    yield finding_at(gen.iter)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_MATERIALIZERS
            and len(node.args) == 1
            and not node.keywords
            and is_set_expr(node.args[0])
        ):
            yield finding_at(node)


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------


def _always(_ctx: ModuleContext) -> bool:
    return True


RULES: List[Rule] = [
    Rule(
        code="SIM001",
        name="wall-clock-read",
        summary="No wall-clock reads inside the deterministic layers.",
        rationale=(
            "Results must be a pure function of (config, seed): the paper's "
            "figures are time integrals over *simulated* time (§II-B, §IV-B). "
            "A wall-clock read couples output to host load. The only "
            "exemption is the SIM001_MODULE_ALLOWLIST module "
            "repro.obs.runs (the run registry stamps stored artifacts "
            "with a wall-clock creation time); host timing is measured "
            "from outside by perfbench's ledger."
        ),
        applies=lambda ctx: (
            ctx.in_package(*_DETERMINISTIC)
            and ctx.module not in SIM001_MODULE_ALLOWLIST
        ),
        check=_check_wall_clock,
    ),
    Rule(
        code="SIM002",
        name="unseeded-randomness",
        summary="No unseeded or global-state randomness outside repro.sim.rng.",
        rationale=(
            "Scheduler comparisons require identical arrivals per seed "
            "(§IV-B); process-global RNGs couple streams and break "
            "replication ladders."
        ),
        applies=lambda ctx: ctx.module != "repro.sim.rng",
        check=_check_randomness,
    ),
    Rule(
        code="SIM003",
        name="float-equality",
        summary="No bare ==/!= against floats in numeric layers.",
        rationale=(
            "Speeds, watts, joules and quality ratios accumulate rounding; "
            "exact comparison flips branches nondeterministically (the "
            "`_VOLUME_EPS` guard in repro.server.core exists for this)."
        ),
        applies=lambda ctx: ctx.in_package(*_NUMERIC),
        check=_check_float_equality,
    ),
    Rule(
        code="SIM004",
        name="layering",
        summary="Lower layers must not import higher layers.",
        rationale=(
            "repro.sim must stay a generic discrete-event kernel and "
            "repro.obs import-light, so tracing can never perturb what it "
            "observes (bit-identical traced runs). The fleet half of the "
            "rule confines process orchestration: only repro.experiments.* "
            "and repro.cli may import repro.experiments.fleet, and only "
            "that module may import multiprocessing at all."
        ),
        applies=_always,
        check=_check_layering,
    ),
    Rule(
        code="SIM005",
        name="frozen-config-mutation",
        summary="Never mutate a frozen SimulationConfig.",
        rationale=(
            "SimulationConfig is the identity of a run; sweeps share one "
            "instance across harnesses, so in-place edits corrupt every "
            "concurrent experiment. Use with_overrides()."
        ),
        applies=_always,
        check=_check_config_mutation,
    ),
    Rule(
        code="SIM006",
        name="untyped-public-api",
        summary="Public functions must be fully annotated.",
        rationale=(
            "The strict-typing gate (mypy --strict) only binds if the public "
            "surface is annotated; unannotated defs erase checking for every "
            "caller."
        ),
        applies=_always,
        check=_check_annotations,
    ),
    Rule(
        code="SIM007",
        name="print-in-library",
        summary="No print() in library code.",
        rationale=(
            "Library layers must report through repro.obs or return values; "
            "stray prints corrupt the CLI's parseable output (CSV/JSONL)."
        ),
        applies=lambda ctx: not ctx.in_package(*_PRINT_OK),
        check=_check_print,
    ),
    Rule(
        code="SIM008",
        name="silent-broad-except",
        summary="No silently swallowed broad exceptions.",
        rationale=(
            "A swallowed SchedulingError leaves jobs half-settled: quality "
            "denominators and energy integrals silently drift from the "
            "truth the sanitizer asserts."
        ),
        applies=_always,
        check=_check_silent_except,
    ),
    Rule(
        code="SIM009",
        name="unordered-iteration",
        summary=(
            "No unordered set iteration feeding scheduling decisions in "
            "repro.core / repro.sim without an explicit sorted(...)."
        ),
        rationale=(
            "Set iteration order follows hash order, which varies across "
            "runs and platforms for str keys (PYTHONHASHSEED); a policy "
            "that visits jobs or cores in set order breaks the "
            "reproducibility contract (identical RunResult per seed) that "
            "every fidelity gate relies on. Membership tests and "
            "order-free reductions (min/max/sum/len) are fine; iteration "
            "must go through sorted(...). Dicts preserve insertion order "
            "and are not flagged — but dicts built *from* sets inherit "
            "the hazard, so build them from sorted sets too."
        ),
        applies=lambda ctx: ctx.in_package(*_ORDER_SENSITIVE),
        check=_check_unordered_iteration,
    ),
]


def rule_catalog() -> str:
    """Human-readable rule listing (the ``rules`` CLI subcommand)."""
    lines = []
    for rule in RULES:
        lines.append(f"{rule.code}  {rule.name}: {rule.summary}")
        lines.append(f"        {rule.rationale}")
    return "\n".join(lines)
