"""Structural interfaces for synopses the engine routes queries to.

The engine is deliberately duck-typed -- any synopsis with the right
maintenance and estimation surface can be registered (Section 1's "a
large number of synopses may be needed").  These :class:`~typing.Protocol`
classes make that surface explicit and checkable: the registration
methods on :class:`~repro.engine.engine.SynopsisEngine` accept these
interfaces, so mypy verifies a new synopsis class fits before it is
ever registered.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

__all__ = ["DistinctSketch", "Histogram"]


@runtime_checkable
class DistinctSketch(Protocol):
    """A COUNT DISTINCT estimator (such as the FM sketch).

    Observes each loaded value via :meth:`insert` and answers with one
    number from :meth:`estimate`; ``footprint`` feeds the registry's
    memory budget.
    """

    @property
    def footprint(self) -> int: ...

    def insert(self, value: int) -> None: ...

    def estimate(self) -> float: ...


@runtime_checkable
class Histogram(Protocol):
    """A bucketed range/equality estimator (equi-depth, v-opt, ...).

    Histograms are statically built from a backing sample rather than
    observing the load stream, so the maintenance surface is absent:
    the engine only queries them.
    """

    @property
    def footprint(self) -> int: ...

    def estimate_range(self, low: float, high: float) -> float: ...

    def estimate_equality(self, value: float) -> float: ...
