"""Timing statistics, memory and provenance helpers for the benchmark.

Everything here is benchmark-side bookkeeping: nothing in this module
touches the program under test.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

#: A reported percentile needs at least this many samples beyond it,
#: or it says more about one stray request than about the class.
MIN_BEYOND = 10
#: Program set-ups per run; ``setup_s`` is their median.
SETUPS = 3


class TooFewSamples(ValueError):
    """A percentile was asked of a class too small to support it."""


def samples_needed(q: float) -> int:
    """Fewest samples that leave ``MIN_BEYOND`` of them above the
    ``q``-th percentile (``q`` in percent)."""
    if not 0 <= q < 100:
        raise ValueError("q must lie in [0, 100)")
    return int(np.ceil(MIN_BEYOND / (1.0 - q / 100.0) - 1e-9))


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refusing classes that are too small.

    Raises :class:`TooFewSamples` unless at least ``MIN_BEYOND``
    samples lie strictly above the rank the percentile falls on.
    """
    n = len(samples)
    if n < samples_needed(q):
        raise TooFewSamples(
            f"p{q:g} needs {samples_needed(q)} samples, got {n}"
        )
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median.

    The run-to-run spread the acceptance check uses, computed with
    ``statistics.quantiles(values, n=4)`` exactly as stated there.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    if median == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(median)


#: Each class runs past the deadline until its p95 is supported.
MIN_SAMPLES = samples_needed(95)


@dataclass
class Phase:
    """What one timed phase did, per operation class.

    In the traced run, loop iterations alternate between untraced and
    traced, so the two sets of latencies see the same host conditions;
    the ``traced_*`` lists and counts cover the traced iterations.
    """

    tracing: bool = False
    query_seconds: list[float] = field(default_factory=list)
    ingest_seconds: list[float] = field(default_factory=list)
    traced_query_seconds: list[float] = field(default_factory=list)
    traced_ingest_seconds: list[float] = field(default_factory=list)
    ingest_rows: int = 0
    traced_rows: int = 0
    #: request frame bytes of the traced ingests
    request_bytes: int = 0
    wall: float = 0.0
    # served workloads: cache and WAL counter deltas over the phase
    cache_hits: int = 0
    cache_lookups: int = 0
    wal_bytes: float = 0.0
    wal_fsyncs: float = 0.0
    # cluster-mixed: queries carried by the refreshes, and routed ones
    queries: int = 0
    routed: int = 0

    def record(self, kind: str, seconds: float, traced: bool) -> None:
        """File one request's latency under its class."""
        prefix = "traced_" if traced else ""
        getattr(self, f"{prefix}{kind}_seconds").append(seconds)

    @property
    def attempted(self) -> int:
        return sum(
            len(samples)
            for samples in (
                self.query_seconds,
                self.ingest_seconds,
                self.traced_query_seconds,
                self.traced_ingest_seconds,
            )
        )

    def enough(self) -> bool:
        """Whether every class has samples enough for its p95."""
        classes = [self.query_seconds, self.ingest_seconds]
        if self.tracing:
            classes += [self.traced_query_seconds, self.traced_ingest_seconds]
        return all(len(samples) >= MIN_SAMPLES for samples in classes)


def overhead_ratios(phase: Phase) -> dict[str, float]:
    """Traced p50 over untraced p50, per operation class."""
    return {
        f"obs.trace_overhead_ratio_{kind}": (
            percentile(getattr(phase, f"traced_{kind}_seconds"), 50)
            / percentile(getattr(phase, f"{kind}_seconds"), 50)
        )
        for kind in ("query", "ingest")
    }


def _status_kib(path: Path, field: str) -> int:
    """One ``kB`` field of a ``/proc/<pid>/status`` file (0 if absent)."""
    try:
        text = path.read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return 0


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one process, in MiB (0 if gone)."""
    return _status_kib(Path(f"/proc/{pid}/status"), "VmHWM") / 1024.0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit(root: Path) -> str:
    """The checkout's commit, or ``unknown`` outside a git work tree.

    The search for a repository stops at ``root``, so a checkout that
    is not itself a work tree never reports an enclosing one's commit.
    """
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def _source_digest(root: Path) -> str:
    """SHA-256 over the program's source files, commit or not."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, seed: int, seconds: float) -> dict[str, object]:
    """The machine and code a result was measured on."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "seed": seed,
        "timed_seconds": seconds,
    }
