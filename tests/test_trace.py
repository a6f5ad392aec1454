"""repro.trace: tracer core, exporters, analysis and end-to-end propagation.

The contracts pinned here, in rough order:

* span nesting/parenting via the ambient thread-local context;
* deterministic sampling, bounded ring-buffer retention, thread safety;
* cross-process merge (`Tracer.ingest`) with id remapping;
* Chrome-trace / flame / stage-latency / tail-attribution exporters;
* the full serving chain (request → admission → batch → dispatch →
  session → solver.step → kernel.*) in thread AND process replica
  modes, with trace ids consistent with `serve.metrics`;
* tracing is bit-exact: a traced forward equals the untraced one.
"""

import json
import pickle
import threading

import numpy as np
import pytest

from repro.models import build_model
from repro.runtime import InferenceSession
from repro.serve import Server
from repro.trace import (
    STAGES,
    KernelSpanCollector,
    Span,
    Tracer,
    chrome_trace,
    current_span_id,
    current_tracer,
    flame_summary,
    percentile,
    render_tail_attribution,
    render_trace_report,
    stage_latency,
    tail_attribution,
    write_chrome_trace,
)


def names(tracer_or_spans):
    spans = (
        tracer_or_spans.spans()
        if isinstance(tracer_or_spans, Tracer)
        else tracer_or_spans
    )
    return [s.name for s in spans]


class TestTracerCore:
    def test_nesting_records_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer", items=2):
            with tracer.span("mid"):
                with tracer.span("inner"):
                    pass
            with tracer.span("mid2"):
                pass
        inner, mid, mid2, outer = tracer.spans()
        assert names(tracer) == ["inner", "mid", "mid2", "outer"]
        assert outer.parent_id is None
        assert mid.parent_id == mid2.parent_id == outer.span_id
        assert inner.parent_id == mid.span_id
        assert outer.attrs == {"items": 2}
        assert outer.dur >= mid.dur >= 0.0
        assert outer.thread == threading.current_thread().name

    def test_span_makes_tracer_ambient_and_restores(self):
        tracer = Tracer()
        assert current_tracer() is None
        with tracer.span("outer") as ctx:
            assert current_tracer() is tracer
            assert current_span_id() == ctx.span_id
        assert current_tracer() is None
        assert current_span_id() is None

    def test_exception_closes_span_with_error_attr(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        (span,) = tracer.spans()
        assert span.attrs["error"] == "RuntimeError"
        assert current_tracer() is None  # ambient state restored

    def test_set_adds_attrs_mid_flight(self):
        tracer = Tracer()
        with tracer.span("step") as ctx:
            ctx.set(accepted=True)
        assert tracer.spans()[0].attrs == {"accepted": True}

    def test_add_span_is_retroactive(self):
        tracer = Tracer()
        sid = tracer.add_span("admission", 1.0, 1.5, trace_ids=[7], q=3)
        (span,) = tracer.spans()
        assert span.span_id == sid
        assert (span.t0, span.dur) == (1.0, 0.5)
        assert span.trace_ids == (7,)
        assert span.attrs == {"q": 3}

    def test_activate_installs_tracer_with_fresh_stack(self):
        tracer = Tracer()
        with tracer.span("outer"):
            worker = Tracer()
            with worker.activate():
                assert current_tracer() is worker
                assert current_span_id() is None  # fresh stack
                with worker.span("inner"):
                    pass
            assert current_tracer() is tracer
        assert names(worker) == ["inner"]
        assert worker.spans()[0].parent_id is None

    def test_sampling_is_deterministic_one_in_n(self):
        tracer = Tracer(sample_every=3)
        ids = [tracer.new_trace() for _ in range(7)]
        assert ids == [1, None, None, 2, None, None, 3]

    def test_ring_buffer_keeps_newest_and_counts_drops(self):
        tracer = Tracer(capacity=4)
        for i in range(6):
            tracer.add_span(f"s{i}", 0.0, 1.0)
        assert names(tracer) == ["s2", "s3", "s4", "s5"]  # oldest first
        assert tracer.dropped == 2
        assert tracer.completed == 6
        tracer.clear()
        assert tracer.spans() == [] and tracer.dropped == 0

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)
        with pytest.raises(ValueError):
            Tracer(sample_every=0)

    def test_span_pickle_roundtrip(self):
        span = Span(3, 1, "kernel.matmul", 0.5, 0.25, "worker",
                    trace_ids=(9,), attrs={"bytes": 64})
        clone = pickle.loads(pickle.dumps(span))
        assert clone.to_dict() == span.to_dict()

    def test_ingest_remaps_ids_and_reparents_roots(self):
        worker = Tracer()
        with worker.activate():
            with worker.span("session"):
                with worker.span("solver.step"):
                    pass
        parent = Tracer()
        with parent.span("dispatch") as dispatch:
            assert parent.ingest(worker.spans()) == 2
        by_name = {s.name: s for s in parent.spans()}
        session, step = by_name["session"], by_name["solver.step"]
        assert session.parent_id == dispatch.span_id  # root re-parented
        assert step.parent_id == session.span_id      # internal link kept
        local_ids = {s.span_id for s in parent.spans()}
        assert len(local_ids) == 3  # no collisions after remap

    def test_append_is_thread_safe(self):
        tracer = Tracer(capacity=64)
        barrier = threading.Barrier(4)

        def hammer():
            barrier.wait()
            for _ in range(100):
                with tracer.span("t"):
                    pass

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracer.completed == 400
        assert len(tracer.spans()) == 64
        assert tracer.dropped == 400 - 64

    def test_kernel_span_collector_parents_under_open_span(self):
        tracer = Tracer()
        with tracer.span("solver.step") as step:
            KernelSpanCollector(tracer).record("matmul", 0.001, 512)
        kernel = tracer.spans()[0]
        assert kernel.name == "kernel.matmul"
        assert kernel.parent_id == step.span_id
        assert kernel.attrs == {"bytes": 512}
        assert kernel.dur == pytest.approx(0.001)


class TestExporters:
    def _tracer(self):
        tracer = Tracer()
        with tracer.span("batch", trace_ids=[1], size=2):
            with tracer.span("session"):
                with tracer.span("solver.step", step=0):
                    pass
        return tracer

    def test_chrome_trace_structure(self):
        doc = chrome_trace(self._tracer().spans())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 3
        assert meta and meta[0]["name"] == "thread_name"
        assert min(e["ts"] for e in slices) == 0  # rebased to earliest
        batch = next(e for e in slices if e["name"] == "batch")
        assert batch["args"]["trace_ids"] == [1]
        assert batch["args"]["size"] == 2
        json.dumps(doc)  # everything must be JSON-serialisable

    def test_write_chrome_trace_roundtrips(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(self._tracer().spans(), str(path))
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == count > 0

    def test_flame_summary_indents_children(self):
        text = flame_summary(self._tracer().spans())
        lines = [l for l in text.splitlines() if l.strip()]
        batch_line = next(l for l in lines if "batch" in l)
        step_line = next(l for l in lines if "solver.step" in l)
        assert len(step_line) - len(step_line.lstrip()) > \
            len(batch_line) - len(batch_line.lstrip())

    def test_render_trace_report_lists_stages(self):
        text = render_trace_report(self._tracer())
        for stage in ("batch", "session", "solver.step"):
            assert stage in text

    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0) == 10.0
        assert percentile(values, 50) == 30.0  # index round(0.5 * 3) = 2
        assert percentile(values, 99) == 40.0
        assert percentile([], 50) == 0.0
        assert percentile([5.0], 99) == 5.0

    def test_stage_latency_folds_kernels(self):
        tracer = Tracer()
        tracer.add_span("kernel.matmul", 0.0, 0.010)
        tracer.add_span("kernel.conv2d", 0.0, 0.020)
        tracer.add_span("session", 0.0, 0.040)
        stages = stage_latency(tracer.spans())
        assert stages["kernel.*"]["count"] == 2
        assert stages["kernel.*"]["total_ms"] == pytest.approx(30.0)
        assert stages["session"]["p50_ms"] == pytest.approx(40.0)


def _traced_server(tmp=None, *, mode="thread", sample_every=1, n=4):
    tracer = Tracer(sample_every=sample_every)
    x = np.random.default_rng(0).standard_normal((3, 32, 32)).astype(np.float32)
    server = Server.build(
        "ode_botnet", "tiny", 1, seed=0, tracer=tracer, mode=mode,
        max_batch_size=4, max_wait_ms=1.0,
    )
    with server:
        direct = [server.predict(x, timeout=60) for _ in range(n)]
        metrics = server.metrics()
    return tracer, metrics, direct


class TestServePropagation:
    def test_thread_mode_full_chain(self):
        tracer, metrics, _ = _traced_server()
        spans = tracer.spans()
        kinds = {s.name.split(".")[0] for s in spans}
        assert {"request", "admission", "batch", "dispatch", "session",
                "solver", "kernel"} <= kinds

        # every request span has a unique trace id, matching admissions
        requests = [s for s in spans if s.name == "request"]
        assert len(requests) == 4
        request_ids = sorted(s.trace_ids[0] for s in requests)
        assert request_ids == [1, 2, 3, 4]
        admitted_ids = sorted(
            s.trace_ids[0] for s in spans if s.name == "admission"
        )
        assert admitted_ids == request_ids
        assert all(s.attrs["outcome"] == "completed" for s in requests)

        # batches nest dispatch → session → solver.step → kernel.*
        by_id = {s.span_id: s for s in spans}

        def chain_of(leaf):
            out = []
            while leaf is not None:
                out.append(leaf.name)
                leaf = by_id.get(leaf.parent_id)
            return out[::-1]

        kernel = next(s for s in spans if s.name.startswith("kernel."))
        chain = chain_of(kernel)
        assert chain[0] == "batch" and chain[1] == "dispatch"
        assert "session" in chain

        # the metrics snapshot carries the same trace counters
        trace = metrics["trace"]
        assert trace["requests"] == 4
        assert trace["completed"] == tracer.completed
        assert set(STAGES) <= set(trace["stages"]) | set(STAGES)
        assert trace["stages"]["request"]["count"] == 4

    def test_process_mode_ingests_worker_spans(self):
        tracer, _, _ = _traced_server(mode="process", n=2)
        spans = tracer.spans()
        by_id = {s.span_id: s for s in spans}
        sessions = [s for s in spans if s.name == "session"]
        assert sessions, "worker session spans came back with the reply"
        for session in sessions:
            assert by_id[session.parent_id].name == "dispatch"
        steps = [s for s in spans if s.name == "solver.step"]
        assert steps and all(
            by_id[s.parent_id].name == "session" for s in steps
        )

    def test_sampling_traces_one_in_n_requests(self):
        tracer, metrics, _ = _traced_server(sample_every=2, n=4)
        spans = tracer.spans()
        requests = [s for s in spans if s.name == "request"]
        assert len(requests) == 2  # the 1st and 3rd submits
        assert metrics["trace"]["requests"] == 2
        # sequential requests ride one batch each: only the two sampled
        # batches trace their sessions, each under its dispatch span
        by_id = {s.span_id: s for s in spans}
        sessions = [s for s in spans if s.name == "session"]
        assert len(sessions) == 2
        assert all(by_id[s.parent_id].name == "dispatch" for s in sessions)

    def test_served_results_bit_exact_with_direct_session(self):
        tracer, _, served = _traced_server()
        session = InferenceSession(
            build_model("ode_botnet", profile="tiny", seed=0,
                        inference=True)
        )
        x = np.random.default_rng(0).standard_normal(
            (3, 32, 32)).astype(np.float32)
        expected = session.predict_batch(x[None])[0]
        for row in served:
            assert np.array_equal(row, expected)

    def test_tail_attribution_decomposes_requests(self):
        tracer, _, _ = _traced_server()
        report = tail_attribution(tracer.spans(), p=99.0)
        assert report["n_requests"] == 4
        assert report["n_tail"] >= 1
        stages = report["stages_ms"]
        assert {"queue", "compute", "dispatch_overhead", "deliver"} == \
            set(stages)
        assert report["dominant"] in stages
        text = render_tail_attribution(report)
        assert "p99" in text and report["dominant"] in text


class TestSessionTracing:
    def test_traced_forward_is_bit_exact_and_spans_complete(self):
        model = build_model("ode_botnet", profile="tiny", seed=0,
                            inference=True)
        x = np.random.default_rng(1).standard_normal(
            (2, 3, 32, 32)).astype(np.float32)
        untraced = InferenceSession(model).predict_batch(x)

        tracer = Tracer()
        session = InferenceSession(model)
        with tracer.activate():
            traced = session.predict_batch(x)
        assert np.array_equal(untraced, traced)

        spans = tracer.spans()
        steps = [s for s in spans if s.name == "solver.step"]
        assert len(steps) == 6  # tiny profile: 3 ODE blocks x 2 steps
        assert sum(1 for s in spans if s.name == "session") == 1
        assert any(s.name.startswith("kernel.") for s in spans)

    def test_kernel_spans_off_keeps_the_rest(self):
        model = build_model("ode_botnet", profile="tiny", seed=0,
                            inference=True)
        x = np.random.default_rng(1).standard_normal(
            (1, 3, 32, 32)).astype(np.float32)
        tracer = Tracer(kernel_spans=False)
        session = InferenceSession(model)
        with tracer.activate():
            session.predict_batch(x)
        spans = tracer.spans()
        assert not any(s.name.startswith("kernel.") for s in spans)
        assert any(s.name == "solver.step" for s in spans)

    def test_ambient_tracer_traces_without_explicit_handoff(self):
        model = build_model("ode_botnet", profile="tiny", seed=0,
                            inference=True)
        session = InferenceSession(model)  # no tracer anywhere
        x = np.random.default_rng(1).standard_normal(
            (1, 3, 32, 32)).astype(np.float32)
        tracer = Tracer()
        with tracer.span("outer"):
            session.predict_batch(x)
        by_name = {s.name for s in tracer.spans()}
        assert "session" in by_name and "solver.step" in by_name
