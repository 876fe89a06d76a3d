"""Run one workload over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/spread.py --workload served-scan --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric the median over the seeds, the quartile spread
(``(q3 - q1) / median`` from ``statistics.quantiles(values, n=4)``)
and the metric's bound from ``BENCHMARK.json``.  A spread at or above a
third of its bound is flagged ``WIDE`` (``setup_s`` is exempt: its
median, not its spread, is what a change is held to).  ``--repeat S``
reruns seed ``S`` and checks that its counts and accuracy metrics
repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Metrics that are a pure function of the seed.
EXACT = ("rel_error_p50", "interval_coverage", "interval_rel_halfwidth_p50")


def seed_list(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (detail line, result line)."""
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or len(lines) < 2:
        raise SystemExit(
            f"{workload} seed {seed} failed ({completed.returncode}):\n"
            f"{completed.stdout[-2000:]}\n{completed.stderr[-2000:]}"
        )
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--repeat", type=int, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    values: dict[str, list[float]] = {}
    wide = False
    for seed in seed_list(args.seeds):
        detail, result = run_once(args.workload, seed, seconds, args.trace)
        if not result["correct"]:
            print(json.dumps(detail["failures"]))
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: {json.dumps({k: round(v['value'], 4) for k, v in result['metrics'].items()})}", flush=True)
    print(f"\n{args.workload}: {len(seed_list(args.seeds))} seeds")
    for name, series in values.items():
        median = statistics.median(series)
        bound = bounds.get(name)
        line = f"  {name:34s} median {median:14.6g}"
        if len(series) >= 2 and bound is not None:
            from measure import quartile_spread

            spread = quartile_spread(series)
            flag = "WIDE" if spread >= bound / 3 and name != "setup_s" else "ok"
            wide |= flag == "WIDE"
            line += f"  spread {spread:7.4f}  bound {bound:5.2f}  {flag}"
        print(line)
    if args.repeat is not None:
        first = run_once(args.workload, args.repeat, seconds, args.trace)
        second = run_once(args.workload, args.repeat, seconds, args.trace)
        same = all(
            first[1]["metrics"][name] == second[1]["metrics"][name]
            for name in EXACT
            if name in first[1]["metrics"]
        ) and first[0]["guards"]["setup_state"] == second[0]["guards"]["setup_state"]
        print(f"  seed {args.repeat} accuracy and counts repeat exactly: {same}")
        wide |= not same
    return 1 if wide else 0


if __name__ == "__main__":
    sys.exit(main())
