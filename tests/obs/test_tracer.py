"""Tests for the tracer: span nesting, ordering, and the null tracer."""

from __future__ import annotations

from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer
from repro.workload.job import Job, JobOutcome


def make_job(jid=1, arrival=0.0, deadline=1.0, demand=100.0) -> Job:
    return Job(jid=jid, arrival=arrival, deadline=deadline, demand=demand)


class TestSpanNesting:
    def test_parent_child_links(self):
        tr = Tracer()
        parent = tr.begin_span("job", 0.0, jid=1)
        child = tr.begin_span("exec", 0.1, parent=parent, core=0)
        assert child.parent_id == parent.span_id
        assert parent.parent_id is None
        trace = tr.to_trace()
        assert trace.children_of(parent) == [child]

    def test_seq_is_globally_ordered(self):
        tr = Tracer()
        a = tr.begin_span("job", 0.0)
        e = tr.event("enqueue", 0.0, span=a)
        b = tr.begin_span("exec", 0.0, parent=a)
        seqs = [a.seq, e.seq, b.seq]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 3

    def test_span_ids_unique(self):
        tr = Tracer()
        ids = {tr.begin_span("job", float(i)).span_id for i in range(10)}
        assert len(ids) == 10


class TestJobLifecycle:
    def test_full_lifecycle(self):
        tr = Tracer()
        job = make_job()
        span = tr.job_arrived(job, 0.0)
        tr.job_assigned(job, core=3, time=0.1)
        tr.job_cut(job, target=80.0, time=0.2)
        exec_span = tr.exec_start(job, core=3, speed=2.0, volume=80.0, time=0.2)
        tr.exec_end(exec_span, time=0.24, done=80.0)
        job.processed = 80.0
        job.settle(JobOutcome.CUT)
        tr.job_settled(job, 0.24)

        assert not span.open
        assert span.attrs["outcome"] == "cut"
        assert span.attrs["processed"] == 80.0
        assert exec_span.parent_id == span.span_id
        trace = tr.to_trace()
        kinds = [e.kind for e in trace.span_events(span)]
        assert kinds == ["enqueue", "assign", "lf_cut", "settle"]
        assert tr.open_spans() == []

    def test_settle_unknown_job_is_noop(self):
        tr = Tracer()
        job = make_job()
        job.settle(JobOutcome.DROPPED)
        tr.job_settled(job, 1.0)  # never arrived through this tracer
        assert tr.spans == []
        assert tr.events == []

    def test_exec_without_job_span_is_root(self):
        tr = Tracer()
        span = tr.exec_start(make_job(), core=0, speed=1.0, volume=10.0, time=0.0)
        assert span.parent_id is None


class TestDecisionEvents:
    def test_decision_event_payload(self):
        from repro.core.decisions import Decision

        tr = Tracer()
        tr.decision(Decision(
            time=1.0, mode="aes", policy="ES", batch_size=4,
            active_jobs=9, monitor_quality=0.93, caps=(20.0, 20.0),
        ))
        (event,) = tr.events
        assert event.kind == "decision"
        assert event.attrs["mode"] == "aes"
        assert event.attrs["caps"] == [20.0, 20.0]  # JSON-native list


class TestNullTracer:
    def test_disabled_and_stateless(self):
        assert NULL_TRACER.enabled is False
        assert not hasattr(NULL_TRACER, "__dict__")  # __slots__: no state

    def test_all_hooks_return_none(self):
        nt = NullTracer()
        job = make_job()
        assert nt.begin_span("job", 0.0) is None
        assert nt.end_span(None, 0.0) is None
        assert nt.event("x", 0.0) is None
        assert nt.job_arrived(job, 0.0) is None
        assert nt.job_assigned(job, 0, 0.0) is None
        assert nt.job_cut(job, 1.0, 0.0) is None
        assert nt.job_settled(job, 0.0) is None
        assert nt.exec_start(job, 0, 1.0, 1.0, 0.0) is None
        assert nt.exec_end(None, 0.0, 0.0) is None
        assert nt.scheduler_event("x", 0.0) is None
        assert nt.decision(None) is None
        assert nt.sample_cores(None, 0.0) is None
        assert nt.run_started(0.0) is None
        assert nt.run_finished(None, 0.0) is None

    def test_mirrors_tracer_public_hooks(self):
        tracer_api = {
            n for n in dir(Tracer)
            if not n.startswith("_") and callable(getattr(Tracer, n))
        }
        null_api = {
            n for n in dir(NullTracer)
            if not n.startswith("_") and callable(getattr(NullTracer, n))
        }
        # Everything instrumented code may call must exist on the null twin
        # (collection-side APIs like to_trace/open_spans are tracer-only).
        hooks = tracer_api - {"to_trace", "open_spans"}
        assert hooks <= null_api
