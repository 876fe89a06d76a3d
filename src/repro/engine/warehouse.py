"""The data warehouse: base data plus load-stream observers.

Implements the data flow of the paper's Figure 2: new data loaded into
the warehouse is *also* observed by the approximate answer engine,
which updates its synopses without ever reading base data back.  Exact
computations scan the base data and are charged one simulated disk
access per row scanned, making the cost asymmetry the paper motivates
visible in the counters.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np

from repro.engine.relation import Relation, RelationError
from repro.randkit.coins import CostCounters

__all__ = ["DataWarehouse"]

# (relation name, normalised row, is_insert)
LoadObserver = Callable[[str, tuple, bool], None]

# Observers may additionally expose
# ``observe_batch(relation_name, columns)`` taking a mapping from
# attribute name to a whole numpy array of that attribute's values for
# the batch; :meth:`DataWarehouse.load_batch` calls it once per batch
# instead of once per row.  Plain callables still receive the per-row
# fallback: tests' lambdas and ``bench_recovery``'s per-row tap are the
# observers it serves.


class DataWarehouse:
    """Relations plus an observer hook for streaming loads."""

    def __init__(self, counters: CostCounters | None = None) -> None:
        self._relations: dict[str, Relation] = {}
        self._observers: list[LoadObserver] = []
        self.counters = counters if counters is not None else CostCounters()

    # ------------------------------------------------------------------
    # Schema and observers
    # ------------------------------------------------------------------

    def create_relation(self, name: str, attributes: list[str]) -> Relation:
        """Create and register an empty relation."""
        if name in self._relations:
            raise RelationError(f"relation {name!r} already exists")
        relation = Relation(name, attributes)
        self._relations[name] = relation
        return relation

    def attach_relation(self, relation: Relation) -> Relation:
        """Register an already-built relation (recovery's restore path)."""
        if relation.name in self._relations:
            raise RelationError(
                f"relation {relation.name!r} already exists"
            )
        self._relations[relation.name] = relation
        return relation

    def relation_names(self) -> list[str]:
        """Sorted names of every registered relation."""
        return sorted(self._relations)

    def relation(self, name: str) -> Relation:
        """Look up a relation by name."""
        try:
            return self._relations[name]
        except KeyError:
            raise RelationError(f"no relation named {name!r}") from None

    def add_observer(self, observer: LoadObserver) -> None:
        """Subscribe to the load stream (the Figure-2 tap)."""
        self._observers.append(observer)

    def remove_observer(self, observer: LoadObserver) -> None:
        """Unsubscribe a previously added observer."""
        self._observers.remove(observer)

    def _notify(
        self, notify_one: Callable[[LoadObserver], None]
    ) -> None:
        """Run a notification against every observer, isolating errors.

        The relation mutation has already completed when this runs; a
        raising observer must not detach the other observers from the
        load stream (their synopses would silently diverge from the
        base data).  Every observer is notified, then the first error
        is re-raised.
        """
        first_error: Exception | None = None
        for observer in self._observers:
            try:
                notify_one(observer)
            except Exception as error:
                if first_error is None:
                    first_error = error
        if first_error is not None:
            raise first_error

    # ------------------------------------------------------------------
    # Loads
    # ------------------------------------------------------------------

    def insert(self, relation_name: str, row: Mapping[str, int] | tuple) -> None:
        """Insert one row and notify observers."""
        relation = self.relation(relation_name)
        normalised = relation.insert(row)
        self.counters.inserts += 1
        self._notify(
            lambda observer: observer(relation_name, normalised, True)
        )

    def delete(self, relation_name: str, row: Mapping[str, int] | tuple) -> None:
        """Delete one row and notify observers."""
        relation = self.relation(relation_name)
        normalised = relation.delete(row)
        self.counters.deletes += 1
        self._notify(
            lambda observer: observer(relation_name, normalised, False)
        )

    def load(
        self,
        relation_name: str,
        rows: Iterable[Mapping[str, int] | tuple],
    ) -> int:
        """Bulk-insert rows; returns how many were loaded."""
        loaded = 0
        for row in rows:
            self.insert(relation_name, row)
            loaded += 1
        return loaded

    def load_batch(
        self,
        relation_name: str,
        columns: Mapping[str, "np.ndarray"],
    ) -> int:
        """Bulk-insert whole attribute arrays; returns rows loaded.

        The columnar fast path: the relation is updated with one
        ``np.unique`` and batch-capable observers (those exposing
        ``observe_batch``) receive the whole batch in one call.
        Plain-callable observers (tests' lambdas, ``bench_recovery``'s
        per-row tap) fall back to one callback per row.
        """
        relation = self.relation(relation_name)
        normalised = relation.insert_batch(columns)
        length = (
            len(next(iter(normalised.values()))) if normalised else 0
        )
        if length == 0:
            return 0
        self.counters.inserts += length
        row_view: list[tuple] | None = None

        def notify_one(observer: LoadObserver) -> None:
            nonlocal row_view
            batch = getattr(observer, "observe_batch", None)
            if batch is not None:
                batch(relation_name, normalised)
                return
            if row_view is None:
                row_view = list(
                    zip(
                        *(
                            normalised[attribute].tolist()
                            for attribute in relation.attributes
                        ),
                        strict=True,
                    )
                )
            for row in row_view:
                observer(relation_name, row, True)

        self._notify(notify_one)
        return length

    # ------------------------------------------------------------------
    # Exact answers (expensive: charged per scanned row)
    # ------------------------------------------------------------------

    def scan_cost(self, relation_name: str) -> int:
        """Disk accesses a full scan of the relation would cost."""
        return self.relation(relation_name).size

    def exact_column(self, relation_name: str, attribute: str) -> np.ndarray:
        """A full-scan copy of one attribute, charged to the counters."""
        relation = self.relation(relation_name)
        self.counters.disk_accesses += relation.size
        return relation.column(attribute)
