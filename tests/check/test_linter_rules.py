"""Fixture corpus for the sim-lint rules: each rule fires on its bad
snippet and stays quiet on the matching good snippet."""

from __future__ import annotations

import pytest

from repro.check import lint_source


def codes(source: str, module: str, path: str = "x.py"):
    return [f.code for f in lint_source(source, module=module, path=path)]


class TestSIM001WallClock:
    def test_flags_time_time_in_sim_code(self):
        src = "import time\n\ndef now() -> float:\n    return time.time()\n"
        assert "SIM001" in codes(src, "repro.sim.engine")

    def test_flags_aliased_import(self):
        src = "import time as _t\n\ndef now() -> float:\n    return _t.perf_counter()\n"
        assert "SIM001" in codes(src, "repro.core.ge")

    def test_flags_from_import(self):
        src = "from time import monotonic\n\ndef now() -> float:\n    return monotonic()\n"
        assert "SIM001" in codes(src, "repro.server.harness")

    def test_flags_datetime_now(self):
        src = "import datetime\n\ndef stamp() -> object:\n    return datetime.datetime.now()\n"
        assert "SIM001" in codes(src, "repro.power.models")

    def test_allows_wall_clock_outside_sim_layers(self):
        src = "import time\n\ndef now() -> float:\n    return time.time()\n"
        assert "SIM001" not in codes(src, "repro.cli")

    def test_allows_time_module_for_sleepless_uses(self):
        # Importing `time` alone is fine; only the wall-clock reads fire.
        src = "import time\n\ndef f() -> object:\n    return time.struct_time\n"
        assert "SIM001" not in codes(src, "repro.sim.engine")

    def test_obs_package_is_deterministic(self):
        # repro.obs joined the deterministic tree: telemetry must not
        # read wall clocks ... except the run registry's storage stamp.
        src = "import time\n\ndef now() -> float:\n    return time.perf_counter()\n"
        assert "SIM001" in codes(src, "repro.obs.tracer")

    def test_run_registry_module_allowlisted(self):
        # The run store stamps artifacts with a wall-clock created_unix;
        # that is storage metadata, not simulated time.  It is the only
        # exemption: nothing else in a traced run reads a clock.
        from repro.check.rules import SIM001_MODULE_ALLOWLIST

        assert SIM001_MODULE_ALLOWLIST == {"repro.obs.runs"}
        src = "import time\n\ndef stamp() -> float:\n    return time.time()\n"
        assert "SIM001" not in codes(src, "repro.obs.runs")

    def test_streaming_modules_not_allowlisted(self):
        # Windowing and SLO evaluation run on simulated seconds only:
        # the streaming telemetry modules get no wall-clock exemption.
        src = "import time\n\ndef now() -> float:\n    return time.time()\n"
        assert "SIM001" in codes(src, "repro.obs.stream")
        assert "SIM001" in codes(src, "repro.obs.slo")
        assert "SIM001" in codes(src, "repro.obs.report")


class TestSIM002UnseededRandomness:
    def test_flags_random_module(self):
        src = "import random\n\ndef draw() -> float:\n    return random.random()\n"
        assert "SIM002" in codes(src, "repro.workload.generator")

    def test_flags_np_random_free_functions(self):
        src = "import numpy as np\n\ndef draw() -> float:\n    return float(np.random.rand())\n"
        assert "SIM002" in codes(src, "repro.workload.generator")

    def test_flags_unseeded_default_rng(self):
        src = "import numpy as np\n\ndef rng() -> object:\n    return np.random.default_rng()\n"
        assert "SIM002" in codes(src, "repro.sim.rng.extras")

    def test_allows_seeded_default_rng(self):
        src = "import numpy as np\n\ndef rng(seed: int) -> object:\n    return np.random.default_rng(seed)\n"
        assert "SIM002" not in codes(src, "repro.workload.generator")

    def test_rng_module_is_exempt(self):
        src = "import numpy as np\n\ndef rng() -> object:\n    return np.random.default_rng()\n"
        assert "SIM002" not in codes(src, "repro.sim.rng")


class TestSIM003FloatEquality:
    def test_flags_float_equality(self):
        src = "def same(a: float, b: float) -> bool:\n    return a / 3.0 == b\n"
        assert "SIM003" in codes(src, "repro.core.planner")

    def test_flags_not_equal(self):
        src = "def diff(a: float) -> bool:\n    return a * 0.1 != 0.3\n"
        assert "SIM003" in codes(src, "repro.power.models")

    def test_allows_int_comparison(self):
        src = "def empty(n: int) -> bool:\n    return n == 0\n"
        assert "SIM003" not in codes(src, "repro.core.planner")

    def test_allows_infinity_sentinel(self):
        # Comparing against float("inf") is exact, not a rounding hazard.
        src = 'def unset(w: float) -> bool:\n    return w == float("inf")\n'
        assert "SIM003" not in codes(src, "repro.core.planner")

    def test_not_applied_outside_numeric_layers(self):
        src = "def same(a: float, b: float) -> bool:\n    return a / 3.0 == b\n"
        assert "SIM003" not in codes(src, "repro.cli")


class TestSIM004Layering:
    def test_sim_layer_cannot_import_server(self):
        src = "from repro.server.harness import SimulationHarness\n"
        assert "SIM004" in codes(src, "repro.sim.engine")

    def test_obs_layer_cannot_import_core(self):
        src = "from repro.core.ge import GEScheduler\n"
        assert "SIM004" in codes(src, "repro.obs.tracer")

    def test_type_checking_imports_are_exempt(self):
        src = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.server.machine import MulticoreServer\n"
        )
        assert "SIM004" not in codes(src, "repro.obs.timeline")

    def test_cli_is_unrestricted(self):
        src = "from repro.server.harness import SimulationHarness\n"
        assert "SIM004" not in codes(src, "repro.cli")

    def test_allowed_import_passes(self):
        src = "from repro.errors import SimulationError\n"
        assert "SIM004" not in codes(src, "repro.sim.engine")


class TestSIM004FleetConfinement:
    def test_core_cannot_import_fleet(self):
        src = "from repro.experiments.fleet import run_fleet\n"
        assert "SIM004" in codes(src, "repro.core.ge")

    def test_obs_siblings_cannot_import_fleet(self):
        # No observability module may depend on process orchestration.
        src = "from repro.experiments.fleet import run_fleet\n"
        assert "SIM004" in codes(src, "repro.obs.stream")

    def test_submodule_spelling_is_caught(self):
        src = "from repro.experiments import fleet\n"
        assert "SIM004" in codes(src, "repro.metrics.collector")

    @pytest.mark.parametrize("src", [
        "from repro.experiments.fleet import run_fleet\n",
        "from repro.experiments import fleet\n",
        "import repro.experiments.fleet\n",
    ], ids=["from-fleet", "from-experiments", "import-fleet"])
    def test_fleet_import_is_reported_once(self, src):
        for module in ("repro.core.ge", "repro.obs.stream", "repro.sim.engine",
                       "repro.validation", "repro"):
            assert codes(src, module).count("SIM004") == 1, module
        for module in ("repro.cli", "repro.experiments.runner"):
            assert "SIM004" not in codes(src, module)

    def test_experiments_and_cli_may_import_fleet(self):
        src = "from repro.experiments.fleet import run_fleet\n"
        assert "SIM004" not in codes(src, "repro.experiments.runner")
        assert "SIM004" not in codes(src, "repro.cli")
        assert "SIM004" not in codes(src, "repro.experiments.fleet")

    def test_multiprocessing_confined_to_fleet_modules(self):
        src = "import multiprocessing\n"
        assert "SIM004" in codes(src, "repro.cli")
        assert "SIM004" in codes(src, "repro.sim.engine")
        assert "SIM004" in codes(src, "repro.experiments.runner")
        assert "SIM004" in codes(src, "repro.obs.runs")
        assert "SIM004" not in codes(src, "repro.experiments.fleet")

    def test_multiprocessing_from_import_and_submodule(self):
        assert "SIM004" in codes(
            "from multiprocessing import Queue\n", "repro.obs.stream"
        )
        assert "SIM004" in codes(
            "import multiprocessing.pool\n", "repro.workload.generator"
        )

    def test_type_checking_multiprocessing_is_exempt(self):
        src = (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    import multiprocessing\n"
        )
        assert "SIM004" not in codes(src, "repro.obs.stream")

    def test_streaming_telemetry_stays_unexempt(self):
        # The run registry's wall-clock exemption must not leak onto
        # the simulated-time telemetry modules.
        from repro.check.rules import SIM001_MODULE_ALLOWLIST

        src = "import time\n\ndef now() -> float:\n    return time.time()\n"
        for module in ("repro.obs.stream", "repro.obs.slo", "repro.obs.tracer"):
            assert module not in SIM001_MODULE_ALLOWLIST
            assert "SIM001" in codes(src, module)


class TestSIM005FrozenConfigMutation:
    def test_flags_object_setattr_on_config(self):
        src = (
            "def poke(config: object) -> None:\n"
            "    object.__setattr__(config, 'seed', 7)\n"
        )
        assert "SIM005" in codes(src, "repro.experiments.runner")

    def test_flags_field_assignment(self):
        src = "def poke(config: object) -> None:\n    config.seed = 7\n"
        assert "SIM005" in codes(src, "repro.experiments.runner")

    def test_allows_with_overrides(self):
        src = "def bump(config):\n    return config.with_overrides(seed=7)\n"
        assert "SIM005" not in codes(src, "repro.experiments.runner")

    def test_allows_non_config_attribute(self):
        src = "def poke(config: object) -> None:\n    config.notes = 'x'\n"
        assert "SIM005" not in codes(src, "repro.experiments.runner")


class TestSIM006Annotations:
    def test_flags_unannotated_param(self):
        src = "def f(x) -> int:\n    return 1\n"
        assert "SIM006" in codes(src, "repro.core.planner")

    def test_flags_missing_return(self):
        src = "def f(x: int):\n    return x\n"
        assert "SIM006" in codes(src, "repro.core.planner")

    def test_private_functions_are_exempt(self):
        src = "def _f(x):\n    return x\n"
        assert "SIM006" not in codes(src, "repro.core.planner")

    def test_init_return_is_implied(self):
        src = (
            "class A:\n"
            "    def __init__(self, x: int):\n"
            "        self.x = x\n"
        )
        assert "SIM006" not in codes(src, "repro.core.planner")

    def test_fully_annotated_passes(self):
        src = "def f(x: int, *, y: float = 0.0) -> float:\n    return x + y\n"
        assert "SIM006" not in codes(src, "repro.core.planner")


class TestSIM007Print:
    def test_flags_print_in_library_code(self):
        src = "def f() -> None:\n    print('hi')\n"
        assert "SIM007" in codes(src, "repro.core.ge")

    def test_cli_may_print(self):
        src = "def f() -> None:\n    print('hi')\n"
        assert "SIM007" not in codes(src, "repro.cli")


class TestSIM008SilentExcept:
    def test_flags_bare_except_pass(self):
        src = (
            "def f() -> None:\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        assert "SIM008" in codes(src, "repro.core.ge")

    def test_handled_except_passes(self):
        src = (
            "def f() -> int:\n"
            "    try:\n"
            "        return g()\n"
            "    except ValueError:\n"
            "        return 0\n"
        )
        assert "SIM008" not in codes(src, "repro.core.ge")


class TestSIM009UnorderedIteration:
    def test_flags_for_loop_over_set(self):
        src = (
            "def dispatch(ready: set) -> list:\n"
            "    order = []\n"
            "    for jid in ready:\n"
            "        order.append(jid)\n"
            "    return order\n"
        )
        assert "SIM009" in codes(src, "repro.core.ge")

    def test_flags_set_literal_comprehension(self):
        src = "def f(jobs):\n    return [j for j in {jobs[0], jobs[1]}]\n"
        assert "SIM009" in codes(src, "repro.sim.engine")

    def test_flags_list_materialization_of_set(self):
        src = "def f() -> list:\n    pending = set()\n    return list(pending)\n"
        assert "SIM009" in codes(src, "repro.core.planner")

    def test_flags_set_arithmetic_results(self):
        src = (
            "def f(a: set, b: set) -> list:\n"
            "    return [x for x in a | b]\n"
        )
        assert "SIM009" in codes(src, "repro.core.assignment")

    def test_flags_set_typed_attribute(self):
        src = (
            "class S:\n"
            "    def __init__(self) -> None:\n"
            "        self.ready = set()\n"
            "\n"
            "    def order(self) -> list:\n"
            "        return [j for j in self.ready]\n"
        )
        assert "SIM009" in codes(src, "repro.core.ge")

    def test_sorted_iteration_passes(self):
        src = (
            "def dispatch(ready: set) -> list:\n"
            "    return [jid for jid in sorted(ready)]\n"
        )
        assert "SIM009" not in codes(src, "repro.core.ge")

    def test_membership_tests_pass(self):
        # Only *iteration order* is nondeterministic; lookups are fine.
        src = (
            "def f(ready: set, jid: int) -> bool:\n"
            "    return jid in ready\n"
        )
        assert "SIM009" not in codes(src, "repro.core.ge")

    def test_dict_iteration_passes(self):
        # Dicts preserve insertion order — deterministic per seed.
        src = "def f(table: dict) -> list:\n    return [k for k in table]\n"
        assert "SIM009" not in codes(src, "repro.core.ge")

    def test_not_applied_outside_scheduling_layers(self):
        src = (
            "def f(names: set) -> list:\n"
            "    return [n for n in names]\n"
        )
        assert "SIM009" not in codes(src, "repro.obs.stream")

    def test_inline_suppression(self):
        src = (
            "def dispatch(ready: set) -> list:\n"
            "    return [j for j in ready]  # simlint: ignore[SIM009]\n"
        )
        assert "SIM009" not in codes(src, "repro.core.ge")


class TestSuppressions:
    def test_inline_ignore_silences_one_code(self):
        src = "import time\n\ndef now() -> float:\n    return time.time()  # simlint: ignore[SIM001]\n"
        assert codes(src, "repro.sim.engine") == []

    def test_inline_ignore_is_code_specific(self):
        src = "import time\n\ndef now() -> float:\n    return time.time()  # simlint: ignore[SIM003]\n"
        assert "SIM001" in codes(src, "repro.sim.engine")

    def test_bare_ignore_silences_all(self):
        src = "import time\n\ndef now():\n    return time.time()  # simlint: ignore\n"
        assert codes(src, "repro.sim.engine") == ["SIM006"]

    def test_skip_file_pragma(self):
        src = "# simlint: skip-file\nimport time\n\ndef now():\n    return time.time()\n"
        assert codes(src, "repro.sim.engine") == []


class TestSelection:
    def test_select_restricts_rules(self):
        src = "import time\n\ndef f(x):\n    return time.time()\n"
        found = lint_source(
            src, module="repro.sim.engine", path="x.py", select={"SIM006"}
        )
        assert [f.code for f in found] == ["SIM006"]

    def test_ignore_removes_rules(self):
        src = "import time\n\ndef f(x):\n    return time.time()\n"
        found = lint_source(
            src, module="repro.sim.engine", path="x.py", ignore={"SIM006"}
        )
        assert [f.code for f in found] == ["SIM001"]


class TestFindingFormat:
    def test_format_is_path_line_col_code(self):
        src = "def f(x):\n    return x\n"
        finding = lint_source(src, module="repro.core.planner", path="p.py")[0]
        text = finding.format()
        assert text.startswith("p.py:1:")
        assert "SIM006" in text

    def test_to_dict_round_trips_fields(self):
        src = "def f(x):\n    return x\n"
        d = lint_source(src, module="repro.core.planner", path="p.py")[0].to_dict()
        assert d["code"] == "SIM006"
        assert d["path"] == "p.py"
        assert d["line"] == 1
