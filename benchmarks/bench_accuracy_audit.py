"""Calibration auditing: probe overhead and measured interval coverage.

Two questions about :class:`repro.obs.audit.CalibrationAuditor`:

* **Probe overhead** -- what does attaching an auditor cost on the
  hot query path, as a function of the audit fraction?  Fraction 0
  must be free (the seeded coin short-circuits); higher fractions pay
  for exact base-data shadows, which is the price of the calibration
  signal.  The no-auditor configuration is an uncached count query
  over one concise sample, the baseline the audited runs are
  compared against.
* **Measured coverage** -- on a zipf-skewed workload with
  ``conservative_intervals=True`` (distribution-free Hoeffding /
  empirical-Bernstein bounds), does empirical audit coverage meet the
  claimed confidence for count, sum, frequency, and hot-list answers?
  It must: the bounds are finite-sample valid by construction.

Writes ``BENCH_accuracy_audit.json`` at the repository root (the
committed baseline); ``REPRO_BENCH_SMOKE=1`` runs a seconds-scale
configuration into ``bench_out/`` instead.

Run with ``PYTHONPATH=src python benchmarks/bench_accuracy_audit.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.core import ConciseSample
from repro.engine import (
    ApproximateAnswerEngine,
    CountQuery,
    DataWarehouse,
    FrequencyQuery,
    HotListQuery,
    SumQuery,
)
from repro.estimators import Predicate
from repro.hotlist.concise import ConciseHotList
from repro.hotlist.counting import CountingHotList
from repro.obs.audit import CalibrationAuditor
from repro.obs.clock import perf_counter
from repro.streams import zipf_stream

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"

N = 5_000 if SMOKE else 1_000_000
DOMAIN = 500 if SMOKE else 100_000
SKEW = 1.1
FOOTPRINT = 100 if SMOKE else 4_000
QUERIES = 50 if SMOKE else 2_000
FRACTIONS = (0.0, 0.01, 0.10)

COVERAGE_ROWS = 2_000 if SMOKE else 200_000
COVERAGE_BATCHES = 10
COVERAGE_DOMAIN = 100 if SMOKE else 2_000
COVERAGE_SKEW = 1.3
COVERAGE_FRACTION = 0.10

ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = (
    ROOT / "bench_out" / "BENCH_accuracy_audit.json"
    if SMOKE
    else ROOT / "BENCH_accuracy_audit.json"
)


def _timed_loop(calls: int, fn) -> dict:
    fn()  # warm
    start = perf_counter()
    for _ in range(calls):
        fn()
    elapsed = perf_counter() - start
    return {
        "seconds": round(elapsed, 4),
        "microseconds_per_call": round(1e6 * elapsed / calls, 2),
    }


# ----------------------------------------------------------------------
# Probe overhead: an uncached count workload, audited
# ----------------------------------------------------------------------


def bench_probe_overhead(stream) -> dict:
    def build(auditor: CalibrationAuditor | None):
        warehouse = DataWarehouse()
        warehouse.create_relation("sales", ["item"])
        engine = ApproximateAnswerEngine(warehouse, auditor=auditor)
        engine.register_sample(
            "sales", "item", ConciseSample(FOOTPRINT, seed=6)
        )
        warehouse.load_batch("sales", {"item": stream})
        return engine

    query = CountQuery("sales", "item")
    results: dict = {
        "no_auditor": _timed_loop(
            QUERIES, lambda e=build(None): e.answer(query)
        )
    }
    for fraction in FRACTIONS:
        auditor = CalibrationAuditor(fraction, seed=31)
        engine = build(auditor)
        timing = _timed_loop(QUERIES, lambda: engine.answer(query))
        timing["audit_shadows"] = len(auditor.observations())
        results[f"fraction_{fraction}"] = timing
    results["fraction_0_overhead_ratio"] = round(
        results["fraction_0.0"]["microseconds_per_call"]
        / results["no_auditor"]["microseconds_per_call"],
        3,
    )
    return results


# ----------------------------------------------------------------------
# Measured coverage on a streaming zipf workload
# ----------------------------------------------------------------------


def build_coverage_engine(fraction: float):
    warehouse = DataWarehouse()
    warehouse.create_relation("sales", ["item", "store"])
    auditor = CalibrationAuditor(fraction, seed=47)
    engine = ApproximateAnswerEngine(
        warehouse, auditor=auditor, conservative_intervals=True
    )
    engine.register_sample(
        "sales", "item", ConciseSample(FOOTPRINT, seed=11)
    )
    engine.register_hotlist(
        "sales", "item", ConciseHotList(FOOTPRINT, seed=12)
    )
    engine.register_hotlist(
        "sales",
        "store",
        CountingHotList(footprint_bound=FOOTPRINT, seed=13),
    )
    return warehouse, engine, auditor


def run_coverage_workload(warehouse, engine) -> int:
    """Stream in batches, interleaving every audited query kind."""
    per_batch = COVERAGE_ROWS // COVERAGE_BATCHES
    thresholds = (5, 10, 25, 50, 100, 250)
    queries = 0
    for batch in range(COVERAGE_BATCHES):
        items = zipf_stream(
            per_batch, COVERAGE_DOMAIN, COVERAGE_SKEW, seed=100 + batch
        )
        stores = zipf_stream(per_batch, 50, 0.8, seed=200 + batch)
        warehouse.load_batch(
            "sales", {"item": items, "store": stores}
        )
        for high in thresholds:
            engine.answer(
                CountQuery("sales", "item", Predicate(high=high))
            )
            engine.answer(
                SumQuery("sales", "item", Predicate(high=high))
            )
            engine.answer(FrequencyQuery("sales", "item", value=1))
            engine.answer(HotListQuery("sales", "item", k=10))
            engine.answer(HotListQuery("sales", "store", k=10))
            queries += 5
    return queries


def bench_coverage() -> dict:
    results: dict = {"fractions": {}}
    for fraction in FRACTIONS:
        warehouse, engine, auditor = build_coverage_engine(fraction)
        start = perf_counter()
        queries = run_coverage_workload(warehouse, engine)
        elapsed = perf_counter() - start
        results["fractions"][f"fraction_{fraction}"] = {
            "seconds": round(elapsed, 4),
            "queries": queries,
            "audit_shadows": len(auditor.observations()),
        }
        if fraction == COVERAGE_FRACTION:
            snapshot = auditor.snapshot()
            results["calibration"] = snapshot
            results["coverage_ok"] = all(
                row["coverage"] is None
                or row["coverage"] >= row["mean_claimed_confidence"]
                for row in snapshot
            )
            results["audited_query_kinds"] = sorted(
                {row["query"] for row in snapshot}
            )
    return results


def main() -> dict:
    stream = zipf_stream(N, DOMAIN, SKEW, seed=1)
    results = {
        "config": {
            "inserts": N,
            "domain": DOMAIN,
            "zipf_skew": SKEW,
            "footprint_bound": FOOTPRINT,
            "query_calls": QUERIES,
            "audit_fractions": list(FRACTIONS),
            "coverage_rows": COVERAGE_ROWS,
            "coverage_batches": COVERAGE_BATCHES,
            "coverage_domain": COVERAGE_DOMAIN,
            "coverage_zipf_skew": COVERAGE_SKEW,
            "coverage_fraction": COVERAGE_FRACTION,
        },
        "probe_overhead": bench_probe_overhead(stream),
        "coverage": bench_coverage(),
    }
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(results, indent=2) + "\n")
    print(json.dumps(results, indent=2))
    print(f"\nwritten to {RESULT_PATH}")
    return results


if __name__ == "__main__":
    main()
