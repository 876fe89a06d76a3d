"""Shared experiment plumbing for the benchmark suite.

The actual drivers live in :mod:`repro.experiments` (they are part of
the library so the ``python -m repro.experiments`` CLI can reuse
them); this module adapts their names to what the benchmark files use,
pins the profile selection, and reads the commit the standalone
benchmarks record as provenance.
"""

from __future__ import annotations

import subprocess
from pathlib import Path

from repro.experiments import (
    FULL_PROFILE,
    HotListRun,
    Profile,
    ScenarioStats,
    active_profile,
    figure3_scenario,
    figure3_sweep,
    hotlist_scenario,
    print_series,
)

__all__ = [
    "FULL_PROFILE",
    "HotListRun",
    "Profile",
    "ScenarioStats",
    "commit",
    "figure3_scenario",
    "figure3_sweep",
    "hotlist_scenario",
    "print_series",
    "profile",
]

# Benchmark files historically call this `profile()`.
profile = active_profile

ROOT = Path(__file__).resolve().parent.parent


def commit() -> str:
    """The checkout's commit (``-dirty`` with uncommitted changes)."""
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"
