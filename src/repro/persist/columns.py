"""Columnar payload codec for batch op-records.

A batch WAL record carries a whole load batch as columns rather than
one framed record per row: per-row records repeat the envelope keys
(``kind``/``sequence``/``relation``) and frame overhead for every row,
while the columnar form pays them once per batch and stores each
attribute as a single dtype-tagged array.  The encoding is JSON-able
(the frame codec requires it) and *typed per column*, so replay can
rebuild the exact ``np.ndarray`` dtype the live side handed to
``load_batch`` and drive the vectorized ingest paths
(``Relation.insert_batch``, synopsis ``insert_array``) instead of a
row loop.

Column kinds:

* ``"int"`` -- any integer dtype; decoded as ``int64`` (the dtype
  every in-tree batch path normalises to).  Values that are not
  integers (floats, strings, booleans) are rejected, not coerced.
* ``"float"`` -- floating dtypes; decoded as ``float64``.
* ``"mixed"`` -- anything else, stored via ``tolist()`` and decoded as
  an object array, preserving the native Python values per-row
  inserts would have stored.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

__all__ = ["decode_columns", "encode_columns"]

_INT_KINDS = "iu"


def encode_columns(
    columns: Mapping[str, np.ndarray],
) -> dict[str, dict[str, Any]]:
    """Encode equal-length attribute arrays as JSON-able tagged columns."""
    encoded: dict[str, dict[str, Any]] = {}
    length: int | None = None
    for name, values in columns.items():
        array = np.asarray(values)
        if length is None:
            length = len(array)
        elif len(array) != length:
            raise ValueError(
                f"column {name!r} has {len(array)} values, expected "
                f"{length}"
            )
        if array.dtype.kind in _INT_KINDS:
            kind = "int"
        elif array.dtype.kind == "f":
            kind = "float"
        else:
            kind = "mixed"
        encoded[str(name)] = {"kind": kind, "values": array.tolist()}
    return encoded


def decode_columns(
    payload: Mapping[str, Mapping[str, Any]],
) -> dict[str, np.ndarray]:
    """Rebuild :func:`encode_columns` output as numpy arrays.

    Raises ``ValueError`` for unknown column kinds, ragged lengths or
    an ``"int"`` column holding non-integers -- the caller (WAL
    read-back or the ingest decoder) wraps that in its typed error.
    """
    decoded: dict[str, np.ndarray] = {}
    length: int | None = None
    for name, column in payload.items():
        kind = column.get("kind")
        values = column.get("values")
        if not isinstance(values, list):
            raise ValueError(f"column {name!r} carries no value list")
        if kind == "int":
            # Infer first, then cast: a dtype=int64 conversion would
            # silently truncate 1.5, parse "3" and turn True into 1.
            array = np.asarray(values)
            if array.ndim != 1 or (len(array) and array.dtype.kind != "i"):
                raise ValueError(
                    f"column {name!r} is tagged int but is not a flat "
                    "list of integers"
                )
            array = array.astype(np.int64, copy=False)
        elif kind == "float":
            array = np.asarray(values, dtype=np.float64)
        elif kind == "mixed":
            array = np.empty(len(values), dtype=object)
            array[:] = values
        else:
            raise ValueError(
                f"column {name!r} has unknown kind {kind!r}"
            )
        if length is None:
            length = len(array)
        elif len(array) != length:
            raise ValueError(
                f"column {name!r} has {len(array)} values, expected "
                f"{length}"
            )
        decoded[str(name)] = array
    return decoded
