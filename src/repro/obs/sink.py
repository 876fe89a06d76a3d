"""Bounded trace export: ring buffer plus JSONL file writer.

:class:`TraceSink` takes whole spans -- query, checkpoint and recovery
roots alike -- off a :class:`~repro.obs.tracing.Tracer` via the
single-export :meth:`~repro.obs.tracing.Tracer.drain` handoff,
flattens each root span and its children into one JSON record per
span, keeps the most recent records in a bounded in-process ring, and
optionally appends them to a JSONL file.  File I/O goes through the
``repro.persist`` filesystem helpers (RL010): the sink never calls
``open`` itself, and the ``repro.persist`` import is deferred to call
time so that importing ``repro.obs`` does not drag in
``repro.persist.recovery`` (which imports the engine, and through it
this package, back).

:func:`read_trace_file` and :func:`span_tree` invert the export:
parse the JSONL records and reassemble the one-level span trees, the
round-trip the acceptance tests assert through.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import Tracer

if TYPE_CHECKING:
    from repro.persist.fsio import FileSystem

__all__ = ["TraceSink", "read_trace_file", "span_tree"]


class TraceSink:
    """Bounded collector for drained spans.

    Parameters
    ----------
    capacity:
        Maximum flat records retained in the in-process ring; older
        records are dropped (and counted) once exceeded.
    path:
        Optional JSONL file to append drained records to.
    filesystem:
        Filesystem used for the JSONL writes; defaults to the local
        filesystem when ``path`` is given.  Injectable for tests.
    registry:
        Metrics sink; defaults to the process-wide active registry.
    """

    def __init__(
        self,
        capacity: int = 2048,
        *,
        path: "str | Path | None" = None,
        filesystem: "FileSystem | None" = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._path = Path(path) if path is not None else None
        if filesystem is None and path is not None:
            # Deferred so importing repro.obs never imports repro.persist
            # (whose recovery module imports the engine back).
            from repro.persist.fsio import LocalFileSystem

            filesystem = LocalFileSystem()
        self._filesystem = filesystem
        registry = registry if registry is not None else get_registry()
        self._exported_total = registry.counter(
            "repro_trace_spans_exported_total",
            "Flat span records exported through the trace sink",
        )
        self._drains_total = registry.counter(
            "repro_trace_drains_total",
            "Tracer-to-sink drain handoffs performed",
        )
        self._dropped_total = registry.counter(
            "repro_trace_dropped_records_total",
            "Span records evicted from the bounded trace ring",
        )
        self._file_bytes_total = registry.counter(
            "repro_trace_file_bytes_total",
            "Bytes appended to the JSONL trace file",
        )
        self._ring: deque[dict[str, Any]] = deque(maxlen=capacity)

    @property
    def path(self) -> "Path | None":
        """The JSONL file records are appended to, if any."""
        return self._path

    def records(self) -> tuple[dict[str, Any], ...]:
        """The buffered flat records, oldest first."""
        return tuple(self._ring)

    def drain(self, tracer: Tracer) -> int:
        """Take every buffered span off ``tracer`` and export it.

        Each root and each of its children becomes one flat record.
        The tracer's ring buffer is cleared by the handoff, so a span
        is exported exactly once no matter how often ``drain`` runs.
        Returns the number of flat records exported.
        """
        records: list[dict[str, Any]] = []
        for span in tracer.drain():
            records.append(span.to_dict())
            records.extend(child.to_dict() for child in span.children)
        self._drains_total.inc()
        if not records:
            return 0
        overflow = len(self._ring) + len(records) - self._capacity
        if overflow > 0:
            self._dropped_total.inc(overflow)
        self._ring.extend(records)
        if self._filesystem is not None and self._path is not None:
            payload = "".join(
                json.dumps(record, sort_keys=True) + "\n"
                for record in records
            ).encode("utf-8")
            stream = self._filesystem.open(self._path, "ab")
            try:
                stream.write(payload)
            finally:
                stream.close()
            self._file_bytes_total.inc(len(payload))
        self._exported_total.inc(len(records))
        return len(records)


def read_trace_file(
    path: "str | Path", filesystem: "FileSystem | None" = None
) -> list[dict[str, Any]]:
    """Parse a JSONL trace file back into flat span records."""
    if filesystem is None:
        from repro.persist.fsio import LocalFileSystem

        filesystem = LocalFileSystem()
    text = filesystem.read_bytes(Path(path)).decode("utf-8")
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def span_tree(
    records: list[dict[str, Any]],
) -> dict[str, dict[str, Any]]:
    """Reassemble flat records into ``{trace_id: {span, children}}``.

    Root records are the ones with ``parent_id`` null; children are
    attached to their trace in span-id order.  Raises ``ValueError``
    on duplicate roots or children whose trace has no root -- a
    malformed export should fail loudly, not silently mis-nest.
    """
    trees: dict[str, dict[str, Any]] = {}
    children: list[dict[str, Any]] = []
    for record in records:
        trace_id = record.get("trace_id", "")
        if record.get("parent_id") is None:
            if trace_id in trees:
                raise ValueError(f"duplicate root span for trace {trace_id}")
            trees[trace_id] = {"span": record, "children": []}
        else:
            children.append(record)
    for record in children:
        trace_id = record.get("trace_id", "")
        tree = trees.get(trace_id)
        if tree is None:
            raise ValueError(
                f"child span {record.get('span_id')!r} has no root "
                f"for trace {trace_id}"
            )
        tree["children"].append(record)
    for tree in trees.values():
        # Span ids are "<trace>:<n>"; sort numerically, not
        # lexicographically, so traces survive >9 children.
        tree["children"].sort(
            key=lambda rec: int(str(rec["span_id"]).rsplit(":", 1)[1])
        )
    return trees
