"""The ``python -m repro.obs`` CLI: selftest and the file-fed report."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.__main__ import main


@pytest.fixture(autouse=True)
def _restore_obs_defaults():
    yield
    obs.disable()


class TestSelftest:
    def test_selftest_exits_zero(self, capsys):
        assert main(["--selftest", "--rows", "20000"]) == 0
        assert "selftest ok" in capsys.readouterr().out

    def test_selftest_restores_defaults(self):
        main(["--selftest", "--rows", "5000"])
        from repro.obs import probe
        from repro.obs.metrics import NULL_REGISTRY, get_registry

        assert probe.PROBE is None
        assert get_registry() is NULL_REGISTRY


class TestUsage:
    def test_bare_invocation_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main([])
        assert caught.value.code == 2
        assert "--selftest" in capsys.readouterr().err

    def test_report_without_files_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["report"])
        assert caught.value.code == 2
        assert "--metrics" in capsys.readouterr().err


class TestReport:
    def test_report_from_exported_files(self, capsys, tmp_path):
        """A registry snapshot and a drained trace file written by a
        live workload render into every populated section."""
        from repro.obs.__main__ import build_workload, ingest_round

        registry = obs.enable()
        try:
            workload = build_workload(registry, seed=7)
            ingest_round(workload, 2_000, seed=17)
            trace_path = tmp_path / "trace.jsonl"
            obs.TraceSink(capacity=256, path=str(trace_path)).drain(
                workload["tracer"]
            )
            metrics_path = tmp_path / "metrics.json"
            metrics_path.write_text(json.dumps(obs.render_json(registry)))
        finally:
            obs.disable()
        argv = ["report", "--metrics", str(metrics_path)]
        assert main([*argv, "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("repro health report")
        assert "CountQuery" in out
        assert "4 root span(s)" in out
        assert "query: 4 root(s)" in out
        assert "no cluster data" in out
        assert "unrecognized series" not in out

    def test_cluster_metrics_file_populates_cluster_section(
        self, capsys, tmp_path
    ):
        """Metrics exported by a 2-shard fleet that lost and restarted
        a worker fill the report's cluster section."""
        from repro.cluster import ShardedWarehouse
        from repro.engine import CountQuery
        from repro.streams import zipf_stream

        registry = obs.enable()
        try:
            with ShardedWarehouse(
                2, tmp_path / "fleet", seed=31, registry=registry
            ) as cluster:
                cluster.create_relation("sales", ["item"])
                cluster.register_synopsis("sales", "item", footprint_bound=400)
                items = zipf_stream(2_000, 1_000, 1.25, seed=32)
                cluster.load_batch("sales", {"item": items})
                cluster.kill_shard(0)
                cluster.answer(CountQuery("sales", "item"))
                cluster.wait_until_healthy(timeout=30.0)
            metrics_path = tmp_path / "metrics.json"
            metrics_path.write_text(json.dumps(obs.render_json(registry)))
        finally:
            obs.disable()
        assert main(["report", "--metrics", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "no cluster data" not in out
        assert "failovers 1" in out
        assert "restarts 1" in out

    def test_metrics_file_with_unknown_family_gets_footer(
        self, capsys, tmp_path
    ):
        snapshot = {
            "metrics": [
                {
                    "name": "repro_mystery_widgets_total",
                    "type": "counter",
                    "series": [{"labels": {}, "value": 1.0}],
                }
            ]
        }
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(snapshot))
        assert main(["report", "--metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "unrecognized series" in out
        assert "repro_mystery_widgets_total" in out
