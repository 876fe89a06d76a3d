"""Checkpoint and recovery roots of the one tracer, and their export."""

from __future__ import annotations

import pytest

from repro import obs
from repro.engine.warehouse import DataWarehouse
from repro.obs import Span, Tracer
from repro.obs.clock import FakeClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.report import render_health_report
from repro.obs.sink import TraceSink, read_trace_file, span_tree
from repro.persist import CheckpointStore, ChecksumMismatch, RecoveryManager


@pytest.fixture(autouse=True)
def _restore_obs_defaults():
    yield
    obs.disable()


def persist_fields(sequence, replayed=0, checkpoint=None, torn=False):
    return {
        "sequence": sequence,
        "replayed_operations": replayed,
        "checkpoint_sequence": sequence if checkpoint is None else checkpoint,
        "torn_tail_dropped": torn,
    }


class TestTracerUnit:
    def test_checkpoint_span_uses_injected_clock(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        tracer = Tracer(registry, clock=clock)
        trace = tracer.start_trace("checkpoint")
        clock.advance(0.125)
        span = trace.finish(**persist_fields(42))
        assert span.name == "checkpoint"
        assert span.status == "ok"
        assert span.parent_id is None
        assert span.duration_seconds == 0.125
        assert span.fields["sequence"] == 42
        assert registry.value(
            "repro_checkpoints_total", {"outcome": "ok"}
        ) == 1.0

    def test_recovery_span_exports_every_metric(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry, clock=FakeClock())
        tracer.start_trace("recovery").finish(
            **persist_fields(17, replayed=5, checkpoint=12, torn=True)
        )
        assert registry.value(
            "repro_recovery_runs_total", {"outcome": "ok"}
        ) == 1.0
        assert registry.value(
            "repro_recovery_replayed_operations_total"
        ) == 5.0
        assert registry.value("repro_recovery_torn_tails_total") == 1.0
        # A persist root never touches the query families.
        assert "repro_queries_total" not in obs.render_prometheus(registry)

    def test_failure_outcomes_are_labelled(self):
        registry = MetricsRegistry()
        tracer = Tracer(registry, clock=FakeClock())
        span = tracer.start_trace("recovery").finish(
            "ChecksumMismatch", **persist_fields(-1, checkpoint=-1)
        )
        assert span.status == "ChecksumMismatch"
        assert registry.value(
            "repro_recovery_runs_total", {"outcome": "ChecksumMismatch"}
        ) == 1.0

    def test_span_ring_buffer_keeps_newest(self):
        tracer = Tracer(MetricsRegistry(), clock=FakeClock(), max_spans=2)
        for sequence in (1, 2, 3):
            tracer.start_trace("checkpoint").finish(
                **persist_fields(sequence)
            )
        assert [span.fields["sequence"] for span in tracer.spans()] == [2, 3]

    def test_span_to_dict_is_complete(self):
        span = Span(
            trace_id="t1-00000001",
            span_id="t1-00000001:0",
            parent_id=None,
            name="recovery",
            duration_seconds=0.5,
            status="ok",
            fields=persist_fields(9, replayed=3, checkpoint=6),
        )
        payload = span.to_dict()
        assert payload == {
            "trace_id": "t1-00000001",
            "span_id": "t1-00000001:0",
            "parent_id": None,
            "name": "recovery",
            "duration_seconds": 0.5,
            "status": "ok",
            "sequence": 9,
            "replayed_operations": 3,
            "checkpoint_sequence": 6,
            "torn_tail_dropped": False,
        }


def build(tmp_path, tracer):
    store = CheckpointStore(tmp_path / "state")
    manager = RecoveryManager(store, tracer=tracer)
    warehouse = DataWarehouse()
    warehouse.create_relation("sales", ["item"])
    manager.attach(warehouse)
    return store, manager, warehouse


def corrupt_checkpoint(tmp_path):
    """Flip one bit in the checkpoint body (recovery must refuse it)."""
    name = [
        n for n in (tmp_path / "state").iterdir() if n.name.endswith(".ckpt")
    ][0]
    data = bytearray(name.read_bytes())
    data[30] ^= 0x20
    name.write_bytes(bytes(data))


class TestManagerIntegration:
    def test_checkpoint_and_recovery_emit_spans(self, tmp_path):
        registry = MetricsRegistry()
        tracer = Tracer(registry, clock=FakeClock())
        _, manager, warehouse = build(tmp_path, tracer)
        for value in range(4):
            warehouse.insert("sales", (value,))
        manager.checkpoint()
        warehouse.insert("sales", (9,))
        manager.detach()

        survivor = RecoveryManager(
            CheckpointStore(tmp_path / "state"), tracer=tracer
        )
        survivor.recover(seed=1)

        names = [span.name for span in tracer.spans()]
        assert names == ["checkpoint", "recovery"]
        checkpoint, recovery = tracer.spans()
        # One trace-id sequence is shared by every root kind.
        assert checkpoint.trace_id.endswith("-00000001")
        assert recovery.trace_id.endswith("-00000002")
        assert checkpoint.fields == persist_fields(4)
        assert recovery.fields == persist_fields(5, replayed=1, checkpoint=4)
        assert recovery.status == "ok"
        assert registry.value(
            "repro_recovery_replayed_operations_total"
        ) == 1.0

    def test_failed_recovery_is_traced_with_the_error_name(self, tmp_path):
        registry = MetricsRegistry()
        tracer = Tracer(registry, clock=FakeClock())
        store, manager, warehouse = build(tmp_path, tracer)
        warehouse.insert("sales", (1,))
        manager.checkpoint()
        manager.detach()
        corrupt_checkpoint(tmp_path)

        survivor = RecoveryManager(
            CheckpointStore(tmp_path / "state"), tracer=tracer
        )
        with pytest.raises(ChecksumMismatch):
            survivor.recover(seed=1)
        failed = tracer.spans()[-1]
        assert failed.name == "recovery"
        assert failed.status == "ChecksumMismatch"
        assert registry.value(
            "repro_recovery_runs_total", {"outcome": "ChecksumMismatch"}
        ) == 1.0

    def test_default_tracer_exports_to_the_process_registry(self, tmp_path):
        registry = obs.enable()
        _, manager, warehouse = build(tmp_path, None)
        warehouse.insert("sales", (1,))
        manager.checkpoint()
        assert registry.value(
            "repro_checkpoints_total", {"outcome": "ok"}
        ) == 1.0


class TestExport:
    def test_persist_roots_drain_through_the_sink(self, tmp_path):
        """Checkpoint and recovery roots, a failed one included, reach
        the JSONL file, round-trip, and show in the report."""
        registry = MetricsRegistry()
        tracer = Tracer(registry, clock=FakeClock())
        _, manager, warehouse = build(tmp_path, tracer)
        warehouse.insert("sales", (1,))
        manager.checkpoint()
        manager.detach()
        RecoveryManager(
            CheckpointStore(tmp_path / "state"), tracer=tracer
        ).recover(seed=1)
        corrupt_checkpoint(tmp_path)
        with pytest.raises(ChecksumMismatch):
            RecoveryManager(
                CheckpointStore(tmp_path / "state"), tracer=tracer
            ).recover(seed=2)
        spans = tracer.spans()
        assert [(s.name, s.status) for s in spans] == [
            ("checkpoint", "ok"),
            ("recovery", "ok"),
            ("recovery", "ChecksumMismatch"),
        ]

        path = tmp_path / "trace.jsonl"
        sink = TraceSink(capacity=16, path=path, registry=registry)
        assert sink.drain(tracer) == 3
        assert tracer.spans() == ()
        records = read_trace_file(path)
        trees = span_tree(records)
        assert set(trees) == {span.trace_id for span in spans}
        for span in spans:
            assert trees[span.trace_id] == {
                "span": span.to_dict(),
                "children": [],
            }

        report = render_health_report(None, records)
        assert "3 root span(s), 0 child span(s)" in report
        assert "checkpoint: 1 root(s)" in report
        assert "recovery: 2 root(s), 1 failed (ChecksumMismatch)" in report
        # The fake clock never advances: the first root is the slowest.
        assert "slowest: checkpoint at sequence 1 (" in report
