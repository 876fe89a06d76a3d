"""Observability overhead guard: no-op vs enabled instrumentation.

Measures concise/counting ingest throughput (per-row and vectorized
batch) in two modes:

* ``noop`` -- the shipped default: no registry, ``PROBE is None``, so
  every instrumentation site short-circuits on one pointer test.
* ``enabled`` -- full telemetry: registry + lifecycle probe installed,
  the synopsis watched by a scrape-time collector, and one Prometheus
  render after the ingest.

Each mode takes the best of ``REPEATS`` runs (best-of defeats
scheduler noise, which only ever slows a run down).  The JSON also
compares the no-op numbers against the committed ingest baseline in
``BENCH_batch_ingest.json`` (same configuration, recorded with no
registry installed) -- the acceptance bar is no-op throughput within
5% of that baseline.  Writes ``BENCH_obs_overhead.json`` at the repository root.

Run with ``PYTHONPATH=src python benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro import obs
from repro.core import ConciseSample, CountingSample
from repro.obs.clock import perf_counter
from repro.streams import zipf_stream

# Same acceptance configuration as bench_batch_ingest.py so the two
# result files are directly comparable.
N = 500_000
DOMAIN = 50_000
SKEW = 1.25
FOOTPRINT = 1_000
REPEATS = 3
ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = ROOT / "BENCH_obs_overhead.json"
BASELINE_PATH = ROOT / "BENCH_batch_ingest.json"


def _best_seconds(build, ingest, stream, enabled: bool) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        if enabled:
            registry = obs.enable()
        synopsis = build()
        if enabled:
            obs.watch_synopsis(registry, synopsis, "bench.item")
        start = perf_counter()
        ingest(synopsis, stream)
        elapsed = perf_counter() - start
        if enabled:
            obs.render_prometheus(registry)
            obs.disable()
        best = min(best, elapsed)
    return best


def _mode(build, ingest, stream, enabled: bool) -> dict:
    seconds = _best_seconds(build, ingest, stream, enabled)
    return {
        "seconds": round(seconds, 4),
        "rows_per_second": round(len(stream) / seconds),
    }


def bench_paths(make, stream) -> dict:
    paths = {}
    for path_name, ingest in (
        ("per_row", lambda s, v: s.insert_many(v.tolist())),
        ("batch", lambda s, v: s.insert_array(v)),
    ):
        noop = _mode(make, ingest, stream, enabled=False)
        enabled = _mode(make, ingest, stream, enabled=True)
        paths[path_name] = {
            "noop": noop,
            "enabled": enabled,
            "enabled_overhead_percent": round(
                100.0 * (enabled["seconds"] / noop["seconds"] - 1.0), 2
            ),
        }
    return paths


def compare_to_baseline(results: dict) -> dict:
    """No-op throughput vs the committed ``bench_batch_ingest`` numbers.

    Negative percentages mean the instrumented no-op path is *faster*
    than the recorded baseline run.
    """
    if not BASELINE_PATH.exists():
        return {"available": False}
    baseline = json.loads(BASELINE_PATH.read_text())
    comparison: dict = {"available": True}
    for sample_kind in ("concise", "counting"):
        for path_name in ("per_row", "batch"):
            before = baseline[sample_kind][path_name][
                "median_rows_per_second"
            ]
            after = results[sample_kind][path_name]["noop"][
                "rows_per_second"
            ]
            key = f"{sample_kind}_{path_name}_slowdown_percent"
            comparison[key] = round(100.0 * (before / after - 1.0), 2)
    return comparison


def main() -> dict:
    stream = zipf_stream(N, DOMAIN, SKEW, seed=1)

    results = {
        "config": {
            "inserts": N,
            "domain": DOMAIN,
            "zipf_skew": SKEW,
            "footprint_bound": FOOTPRINT,
            "repeats": REPEATS,
        },
        "concise": bench_paths(
            lambda: ConciseSample(FOOTPRINT, seed=2), stream
        ),
        "counting": bench_paths(
            lambda: CountingSample(FOOTPRINT, seed=3), stream
        ),
    }
    results["vs_pre_pr_baseline"] = compare_to_baseline(results)

    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nwritten to {RESULT_PATH}")
    return results


if __name__ == "__main__":
    main()
