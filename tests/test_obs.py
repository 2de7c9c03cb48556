"""Observability subsystem: span tracer, metrics, exporters, propagation.

Contracts under test:

1. **Tracer core** — nested spans link parent ids through thread-local
   stacks (concurrent threads never cross-link); the disabled path is a
   shared no-op; :meth:`Tracer.adopt` remaps foreign ids and re-parents
   tree roots under the dispatching span.
2. **Metrics** — delta/merge round-trips are exact (counters add,
   histograms fold, gauges last-write-wins); :meth:`snapshot` folds the
   workspace's ``SolveStats`` and cache hit rates without storing them.
3. **Cross-process propagation** — a design run over ``process:2`` and
   ``remote:2`` yields *one connected trace*: worker spans are grafted
   under the parent's dispatch span, worker pids survive into the
   Chrome export (>= 2 distinct worker pids), and a Monte-Carlo
   evaluation's merged metric totals exactly reproduce the serial run's
   solver counters.
4. **Exporters** — ``repro trace summarize`` reproduces per-phase
   totals from the JSONL records; the Chrome file is valid trace-event
   JSON; ``TraceSession`` leaves the advertised artifacts behind.
5. **Wiring** — ``--log-level`` configures logging once for every
   subcommand and exports its level for worker subprocesses; trace
   fields are runtime-only (config digests are invariant, so a traced
   resume matches an untraced checkpoint); remote heartbeats publish
   worker gauges into the parent registry.
"""

import json
import logging
import threading

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import Boson1Optimizer, OptimizerConfig
from repro.core.checkpoint import config_digest
from repro.devices import make_device
from repro.eval import evaluate_post_fab
from repro.fab.process import FabricationProcess
from repro.fdfd import SimulationWorkspace
from repro.obs.export import (
    TraceSession,
    chrome_trace_events,
    format_summary,
    load_trace_records,
    summarize_records,
)
from repro.obs.metrics import (
    MetricsRegistry,
    get_metrics,
    reset_metrics,
    rss_bytes,
)
from repro.obs.trace import (
    SpanCapture,
    Tracer,
    disable_tracing,
    enable_tracing,
    get_tracer,
    span,
    tracing_active,
)
from repro.params import rasterize_segments
from repro.utils.logsetup import LOG_LEVEL_ENV, configure_logging

pytestmark = pytest.mark.obs


@pytest.fixture(autouse=True)
def _clean_obs_state(monkeypatch):
    """Every test starts and ends with tracing off and empty metrics."""
    monkeypatch.delenv(LOG_LEVEL_ENV, raising=False)
    disable_tracing()
    reset_metrics()
    yield
    disable_tracing()
    reset_metrics()


def _fab_process(device):
    return FabricationProcess(
        device.design_shape,
        device.dl,
        context=device.litho_context(12),
        pad=12,
    )


def _init_pattern(device):
    return rasterize_segments(
        device.design_shape, device.dl, device.init_segments()
    )


# --------------------------------------------------------------------- #
# Tracer core                                                           #
# --------------------------------------------------------------------- #
class TestTracer:
    def test_disabled_span_is_shared_noop(self):
        assert not tracing_active()
        a = span("anything", "cat", key=1)
        b = span("else")
        assert a is b  # one stateless singleton, no allocation per site
        with a as handle:
            assert handle.span_id is None
            handle.set(more=2)  # must be accepted and dropped

    def test_nesting_links_parents(self):
        tracer = enable_tracing()
        with span("outer", "t") as outer:
            with span("inner", "t") as inner:
                pass
        records = {rec["name"]: rec for rec in tracer.drain()}
        assert records["inner"]["parent"] == outer.span_id
        assert records["outer"]["parent"] is None
        assert records["outer"]["id"] == outer.span_id
        assert records["inner"]["id"] == inner.span_id
        assert records["inner"]["dur"] >= 0
        # Wall-anchored monotonic timestamps: inner starts within outer.
        assert records["inner"]["ts"] >= records["outer"]["ts"]

    def test_set_attaches_args(self):
        tracer = enable_tracing()
        with span("s", "t", fixed=1) as handle:
            handle.set(late=2)
        (rec,) = tracer.drain()
        assert rec["args"] == {"fixed": 1, "late": 2}

    def test_explicit_parent_overrides_stack(self):
        tracer = enable_tracing()
        with span("root"):
            with span("detached", parent=999):
                pass
        by_name = {rec["name"]: rec for rec in tracer.drain()}
        assert by_name["detached"]["parent"] == 999

    def test_thread_local_stacks_do_not_cross_link(self):
        tracer = enable_tracing()
        barrier = threading.Barrier(2)

        def worker(label):
            with span(f"root-{label}"):
                barrier.wait()  # both roots open concurrently
                with span(f"child-{label}"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = {rec["name"]: rec for rec in tracer.drain()}
        for i in range(2):
            assert (
                records[f"child-{i}"]["parent"] == records[f"root-{i}"]["id"]
            )

    def test_adopt_remaps_ids_and_reparents_roots(self):
        with SpanCapture("task", "worker", item=3) as cap:
            with span("child"):
                pass
        assert [rec["name"] for rec in cap.records] == ["child", "task"]

        tracer = Tracer()
        with tracer.span("dispatch") as dispatch:
            pass
        tracer.adopt(cap.records, dispatch.span_id)
        records = {rec["name"]: rec for rec in tracer.drain()}
        # The capture root hangs off the dispatch span; its child's link
        # was remapped into the adopting tracer's id space.
        assert records["task"]["parent"] == dispatch.span_id
        assert records["child"]["parent"] == records["task"]["id"]
        ids = [rec["id"] for rec in records.values()]
        assert len(set(ids)) == len(ids)

    def test_span_capture_shadows_global_tracer(self):
        tracer = enable_tracing()
        with SpanCapture("task") as cap:
            assert tracing_active()
            with span("inside"):
                pass
        with span("outside"):
            pass
        assert {rec["name"] for rec in cap.records} == {"task", "inside"}
        assert [rec["name"] for rec in tracer.drain()] == ["outside"]

    def test_capture_works_with_tracing_disabled_globally(self):
        assert get_tracer() is None
        with SpanCapture("task") as cap:
            with span("inside"):
                pass
        assert not tracing_active()
        assert {rec["name"] for rec in cap.records} == {"task", "inside"}


# --------------------------------------------------------------------- #
# Metrics registry                                                      #
# --------------------------------------------------------------------- #
class TestMetrics:
    def test_delta_and_merge_roundtrip(self):
        worker = MetricsRegistry()
        worker.counter_add("c", 2)
        worker.observe("h", 1.0)
        baseline = worker.as_dict()
        worker.counter_add("c", 3)
        worker.counter_add("new", 1)
        worker.gauge_set("g", 7.5)
        worker.observe("h", 3.0)
        delta = worker.delta_since(baseline)
        assert delta["counters"] == {"c": 3, "new": 1}
        assert delta["gauges"] == {"g": 7.5}
        assert delta["hists"]["h"][:2] == [1, 3.0]

        parent = MetricsRegistry()
        parent.counter_add("c", 10)
        parent.observe("h", 5.0)
        parent.merge_delta(delta)
        merged = parent.as_dict()
        assert merged["counters"] == {"c": 13, "new": 1}
        assert merged["gauges"] == {"g": 7.5}
        # count/total add; min/max fold the delta's (lifetime) extremes
        # — exact when a baseline is taken per task, conservative here.
        assert merged["hists"]["h"] == [2, 8.0, 1.0, 5.0]

    def test_unchanged_counters_are_omitted_from_delta(self):
        reg = MetricsRegistry()
        reg.counter_add("c", 4)
        delta = reg.delta_since(reg.as_dict())
        assert delta["counters"] == {}
        assert delta["hists"] == {}

    def test_snapshot_folds_workspace_without_storing(self):
        class FakeWorkspace:
            def stats(self):
                return {
                    "solver": {"solves": 4, "factorizations": 2},
                    "factorizations": {"hit_rate_pct": 75.0, "hits": 3,
                                       "misses": 1},
                }

        reg = MetricsRegistry()
        reg.counter_add("checkpoint.saves", 1)
        snap = reg.snapshot(FakeWorkspace())
        assert snap["counters"]["solver.solves"] == 4
        assert snap["counters"]["checkpoint.saves"] == 1
        assert snap["gauges"]["cache.factorizations.hit_rate_pct"] == 75.0
        # Presentation-time fold only: the registry itself stays clean,
        # so repeated snapshots cannot double-count solver work.
        assert "solver.solves" not in reg.as_dict()["counters"]
        snap2 = reg.snapshot(FakeWorkspace())
        assert snap2["counters"]["solver.solves"] == 4

    def test_rss_bytes_is_positive_here(self):
        assert rss_bytes() > 0


# --------------------------------------------------------------------- #
# Exporters                                                             #
# --------------------------------------------------------------------- #
def _record(id, parent, name, ts, dur, pid=1, tid=1):
    return {"id": id, "parent": parent, "name": name, "cat": "t",
            "ts": ts, "dur": dur, "pid": pid, "tid": tid, "args": {}}


class TestExport:
    def test_summarize_self_time_subtracts_direct_children(self):
        records = [
            _record(1, None, "outer", 0, 100),
            _record(2, 1, "inner", 10, 40),
            _record(3, 1, "inner", 60, 30),
        ]
        summary = summarize_records(records)
        assert summary["outer"]["calls"] == 1
        assert summary["outer"]["total_s"] == pytest.approx(100e-9)
        assert summary["outer"]["self_s"] == pytest.approx(30e-9)
        assert summary["inner"]["calls"] == 2
        assert summary["inner"]["self_s"] == pytest.approx(70e-9)
        text = format_summary(summary)
        assert text.splitlines()[0].split() == [
            "phase", "calls", "total_s", "self_s", "mean_s",
        ]

    def test_chrome_events_are_microseconds(self):
        (event,) = chrome_trace_events([_record(1, None, "s", 5000, 2000)])
        assert event["ph"] == "X"
        assert event["ts"] == 5.0 and event["dur"] == 2.0
        assert event["pid"] == 1 and event["tid"] == 1

    def test_trace_session_artifacts_and_roundtrip(self, tmp_path):
        with TraceSession(tmp_path / "tr", ("jsonl", "chrome")) as session:
            with span("engine.iteration", "engine"):
                with span("solver.solve", "solver"):
                    pass
            session.record("iteration", 0, extra={"loss": 1.0})
        assert not tracing_active()  # close() tears the tracer down

        jsonl = tmp_path / "tr" / "trace.jsonl"
        chrome = tmp_path / "tr" / "trace_chrome.json"
        summary = tmp_path / "tr" / "summary.txt"
        assert jsonl.exists() and chrome.exists() and summary.exists()

        entries = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert entries[0]["type"] == "iteration"
        assert entries[0]["loss"] == 1.0
        assert "counters" in entries[0]["metrics"]

        records = load_trace_records(jsonl)
        rollup = summarize_records(records)
        assert rollup["engine.iteration"]["calls"] == 1
        # The Chrome artifact parses as trace-event JSON and carries the
        # same spans (per-phase totals agree with the JSONL rollup).
        payload = json.loads(chrome.read_text())
        assert {e["name"] for e in payload["traceEvents"]} == set(rollup)
        chrome_rollup = summarize_records(load_trace_records(chrome))
        for name, row in rollup.items():
            assert chrome_rollup[name]["calls"] == row["calls"]
            assert chrome_rollup[name]["total_s"] == pytest.approx(
                row["total_s"], abs=1e-6
            )

    def test_trace_session_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="unknown trace format"):
            TraceSession(tmp_path, ("jsonl", "flamegraph"))

    def test_cli_trace_summarize_reproduces_totals(self, tmp_path, capsys):
        with TraceSession(tmp_path / "tr") as session:
            for _ in range(3):
                with span("engine.loss", "engine"):
                    pass
            session.record("iteration", 0)
        rc = cli_main(["trace", "summarize", str(tmp_path / "tr/trace.jsonl")])
        assert rc == 0
        out = capsys.readouterr().out
        expected = summarize_records(
            load_trace_records(tmp_path / "tr/trace.jsonl")
        )
        line = next(
            ln for ln in out.splitlines() if ln.startswith("engine.loss")
        )
        fields = line.split()
        assert int(fields[1]) == expected["engine.loss"]["calls"] == 3
        assert float(fields[2]) == pytest.approx(
            expected["engine.loss"]["total_s"], abs=1e-6
        )

    def test_cli_trace_summarize_missing_file(self, tmp_path, capsys):
        rc = cli_main(["trace", "summarize", str(tmp_path / "nope.jsonl")])
        assert rc == 2
        assert "cannot read trace" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Config / checkpoint wiring                                            #
# --------------------------------------------------------------------- #
class TestConfigWiring:
    def test_trace_format_validated_eagerly(self):
        with pytest.raises(ValueError, match="trace_format"):
            OptimizerConfig(trace_format="jsonl,flamegraph")
        with pytest.raises(ValueError, match="metrics_every"):
            OptimizerConfig(metrics_every=-1)
        assert OptimizerConfig(
            trace_format="jsonl, chrome"
        ).trace_formats() == ("jsonl", "chrome")

    def test_trace_fields_are_runtime_only_for_resume(self, tmp_path):
        plain = OptimizerConfig(iterations=3, seed=0)
        traced = OptimizerConfig(
            iterations=3,
            seed=0,
            trace_dir=str(tmp_path / "tr"),
            trace_format="jsonl,chrome",
            metrics_every=2,
        )
        # A checkpoint written by an untraced run must resume under
        # tracing (and vice versa): observability never shapes the
        # trajectory, so it cannot bind the digest.
        assert config_digest(plain, "bending") == config_digest(
            traced, "bending"
        )


# --------------------------------------------------------------------- #
# Logging satellite                                                     #
# --------------------------------------------------------------------- #
class TestLogging:
    @pytest.fixture(autouse=True)
    def _restore_root_level(self):
        root = logging.getLogger()
        level = root.level
        yield
        root.setLevel(level)

    def test_explicit_level_wins_and_exports_env(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "error")
        import os

        assert configure_logging("debug") == "debug"
        assert logging.getLogger().level == logging.DEBUG
        # Exported for worker subprocesses (process pools, repro worker).
        assert os.environ[LOG_LEVEL_ENV] == "debug"

    def test_env_level_is_the_fallback(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "info")
        assert configure_logging(None) == "info"
        assert logging.getLogger().level == logging.INFO

    def test_default_is_warning(self):
        assert configure_logging(None) == "warning"
        assert logging.getLogger().level == logging.WARNING

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError, match="log level"):
            configure_logging("loud")

    def test_cli_configures_logging_for_every_subcommand(self, capsys):
        assert cli_main(["--log-level", "debug", "info"]) == 0
        assert logging.getLogger().level == logging.DEBUG
        capsys.readouterr()


# --------------------------------------------------------------------- #
# Cross-process propagation                                             #
# --------------------------------------------------------------------- #
def _connected_component(records, root_names):
    """Ids reachable from spans named in ``root_names`` via parent links."""
    children = {}
    roots = set()
    for rec in records:
        children.setdefault(rec["parent"], []).append(rec["id"])
        if rec["name"] in root_names:
            roots.add(rec["id"])
    seen = set(roots)
    frontier = list(roots)
    while frontier:
        node = frontier.pop()
        for child in children.get(node, ()):
            if child not in seen:
                seen.add(child)
                frontier.append(child)
    return seen


def _traced_design(tmp_path, executor, **config_kwargs):
    device = make_device("bending")
    optimizer = Boson1Optimizer(
        device,
        OptimizerConfig(
            iterations=2,
            seed=0,
            corner_executor=executor,
            trace_dir=str(tmp_path / "tr"),
            trace_format="jsonl,chrome",
            **config_kwargs,
        ),
    )
    result = optimizer.run()
    optimizer.close()
    return result, tmp_path / "tr"


class TestSerialTrace:
    def test_iteration_records_carry_step_health(self, tmp_path):
        result, trace_dir = _traced_design(tmp_path, "serial")
        entries = [
            json.loads(line)
            for line in (trace_dir / "trace.jsonl").read_text().splitlines()
        ]
        iterations = [e for e in entries if e["type"] == "iteration"]
        assert len(iterations) == len(result.history) == 2
        for entry, rec in zip(iterations, result.history):
            assert entry["grad_norm"] == rec.grad_norm > 0
            assert entry["step_norm"] == rec.step_norm > 0


class TestProcessPropagation:
    def test_design_trace_is_one_connected_tree(self, tmp_path):
        import os

        _result, trace_dir = _traced_design(tmp_path, "process:2")
        records = load_trace_records(trace_dir / "trace.jsonl")
        by_id = {rec["id"]: rec for rec in records}

        worker_tasks = [
            rec for rec in records
            if rec["name"] == "worker.task" and rec["pid"] != os.getpid()
        ]
        assert len({rec["pid"] for rec in worker_tasks}) >= 2
        # Every worker task hangs directly off an engine dispatch span —
        # the adoption seam, not an orphaned parallel universe.
        for rec in worker_tasks:
            assert by_id[rec["parent"]]["name"] == "engine.dispatch"
        # Worker-side solver spans arrived nested under their task.
        worker_ids = {rec["id"] for rec in worker_tasks}
        worker_solves = [
            rec for rec in records
            if rec["name"] == "solver.solve" and rec["parent"] in worker_ids
        ]
        assert worker_solves
        # One component: every span is reachable from an iteration root
        # or is itself a root-level span recorded by the parent.
        component = _connected_component(records, {"engine.iteration"})
        orphans = [
            rec for rec in records
            if rec["id"] not in component
            and rec["parent"] is not None
            and rec["parent"] not in by_id
        ]
        assert orphans == []

        payload = json.loads((trace_dir / "trace_chrome.json").read_text())
        events = payload["traceEvents"]
        assert all(
            e["ph"] == "X" and "ts" in e and "dur" in e for e in events
        )
        assert len({e["pid"] for e in events} - {os.getpid()}) >= 2

    def test_mc_eval_metric_totals_match_serial_exactly(self, tmp_path):
        """Worker metric deltas + workspace folding reproduce serial.

        Each Monte-Carlo sample draws its own temperature, so every
        calibration is solved exactly once whether it runs in a worker
        or in the parent — the snapshot's merged ``solver.*`` counters
        must be *equal*, not merely close.
        """
        pattern = None
        snapshots = {}
        for executor in ("serial", "process:2"):
            reset_metrics()
            device = make_device("bending")
            device.configure_simulation_cache(True, SimulationWorkspace())
            if pattern is None:
                pattern = _init_pattern(device)
            with TraceSession(tmp_path / executor.replace(":", "_")):
                evaluate_post_fab(
                    device, _fab_process(device), pattern, 4, seed=2,
                    executor=executor,
                )
            snapshots[executor] = get_metrics().snapshot(device.workspace)
        serial = snapshots["serial"]["counters"]
        fanned = snapshots["process:2"]["counters"]
        solver_keys = {k for k in serial if k.startswith("solver.")}
        assert solver_keys
        assert {k: fanned.get(k) for k in solver_keys} == {
            k: serial[k] for k in solver_keys
        }


@pytest.mark.remote
class TestRemotePropagation:
    @pytest.fixture(scope="class")
    def worker_pair(self):
        from repro.core.remote import start_worker_subprocess

        workers = [start_worker_subprocess() for _ in range(2)]
        yield "remote:" + ",".join(
            f"{host}:{port}" for _proc, (host, port) in workers
        )
        for proc, _address in workers:
            proc.terminate()

    def test_design_trace_spans_remote_fleet(self, tmp_path, worker_pair):
        import os

        result, trace_dir = _traced_design(
            tmp_path, worker_pair, remote_timeout=60.0
        )
        records = load_trace_records(trace_dir / "trace.jsonl")
        by_id = {rec["id"]: rec for rec in records}

        worker_tasks = [
            rec for rec in records
            if rec["name"] == "worker.task" and rec["pid"] != os.getpid()
        ]
        assert len({rec["pid"] for rec in worker_tasks}) >= 2
        for rec in worker_tasks:
            assert by_id[rec["parent"]]["name"] == "engine.dispatch"

        # Client-side accounting spans: one remote.task per dispatched
        # item, carrying worker address + queue-wait, parented under the
        # remote.map span.
        remote_tasks = [r for r in records if r["name"] == "remote.task"]
        assert remote_tasks
        for rec in remote_tasks:
            assert by_id[rec["parent"]]["name"] == "remote.map"
            assert "queue_wait_s" in rec["args"]
            assert "worker" in rec["args"]
        # Frame I/O got spanned and byte-counted on the wire.
        frame_spans = [r for r in records if r["name"] == "remote.send_frame"]
        assert frame_spans
        assert all(rec["args"]["bytes"] > 0 for rec in frame_spans)

        # The run itself stayed a run (sanity on the traced result).
        assert len(result.history) == 2

    def test_heartbeat_gauges_reach_parent_registry(self, worker_pair):
        reset_metrics()
        device = make_device("bending")
        pattern = _init_pattern(device)
        evaluate_post_fab(
            device, _fab_process(device), pattern, 4, seed=2,
            executor=worker_pair, remote_timeout=60.0,
        )
        gauges = get_metrics().as_dict()["gauges"]
        worker_gauges = {
            name: value for name, value in gauges.items()
            if name.startswith("remote.worker.")
        }
        # Both workers published queue depth / completed count / RSS.
        hosts = {name.rsplit(".", 1)[0] for name in worker_gauges}
        assert len(hosts) == 2
        for host in hosts:
            assert worker_gauges[f"{host}.tasks_completed"] >= 1
            assert worker_gauges[f"{host}.rss_bytes"] > 0
            assert f"{host}.queue_depth" in worker_gauges

    def test_metrics_count_remote_frames(self, worker_pair):
        reset_metrics()
        device = make_device("bending")
        pattern = _init_pattern(device)
        evaluate_post_fab(
            device, _fab_process(device), pattern, 4, seed=2,
            executor=worker_pair, remote_timeout=60.0,
        )
        counters = get_metrics().as_dict()["counters"]
        assert counters["remote.frames_sent"] >= 4
        assert counters["remote.frames_received"] >= 4
        assert counters["remote.bytes_sent"] > 0
        assert counters["remote.bytes_received"] > 0
