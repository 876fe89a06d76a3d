"""Columnar payload codec for ingest requests and batch op-records.

A batch WAL record (and an ingest request on either wire path) carries
a whole load batch as columns rather than one framed record per row:
per-row records repeat the envelope keys (``kind``/``sequence``/
``relation``) and frame overhead for every row, while the columnar
form pays them once per batch.  Replay rebuilds the arrays the live
side handed to ``load_batch`` and drives the vectorized ingest paths
(``Relation.insert_batch``, synopsis ``insert_array``) instead of a
row loop.

:func:`encode_columns` is the one writer.  Numeric columns stay NumPy
arrays, which the frame codec (:mod:`repro.persist.framing`) carries
as raw little-endian buffers in its binary section:

* integer columns at the narrowest signed dtype (``int8`` ...
  ``int64``) that holds their minimum and maximum; values beyond
  ``int64`` are refused;
* floating columns as ``<f8``;
* anything else as a tagged list ``{"kind": "mixed", "values": [...]}``
  (only the in-process WAL writes those), preserving the native Python
  values per-row inserts would have stored.

:func:`decode_columns` is the one reader.  It accepts binary columns
and the tagged lists of format-1 WAL segments (``{"kind": "int" |
"float" | "mixed", "values": [...]}``), and always returns owned
arrays: ``int64`` for integer columns, ``float64`` for floating ones,
``object`` for mixed ones.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.persist.framing import ARRAY_MARKER

__all__ = ["decode_columns", "encode_columns"]

_SIGNED = tuple(np.dtype(f"<i{width}") for width in (1, 2, 4, 8))


def _narrowest(name: str, array: np.ndarray) -> np.ndarray:
    """An integer column at the narrowest signed dtype holding it."""
    if not len(array):
        return array.astype(_SIGNED[0])
    low, high = int(array.min()), int(array.max())
    for dtype in _SIGNED:
        limits = np.iinfo(dtype)
        if limits.min <= low and high <= limits.max:
            return array.astype(dtype, copy=False)
    raise ValueError(f"column {name!r} holds values beyond int64")


def encode_columns(columns: Mapping[str, Any]) -> dict[str, Any]:
    """Encode equal-length attribute columns for a frame payload."""
    encoded: dict[str, Any] = {}
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
        if array.dtype.kind in "iu":
            encoded[str(name)] = _narrowest(str(name), array)
        elif array.dtype.kind == "f":
            encoded[str(name)] = array.astype("<f8", copy=False)
        else:
            encoded[str(name)] = {"kind": "mixed", "values": array.tolist()}
    return encoded


def _decode_list(name: str, column: Mapping[str, Any]) -> np.ndarray:
    """One format-1 tagged list column."""
    if ARRAY_MARKER in column:
        raise ValueError(f"column {name!r} has an invalid binary descriptor")
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
        return array.astype(np.int64, copy=False)
    if kind == "float":
        return np.asarray(values, dtype=np.float64)
    if kind == "mixed":
        array = np.empty(len(values), dtype=object)
        array[:] = values
        return array
    raise ValueError(f"column {name!r} has unknown kind {kind!r}")


def decode_columns(payload: Mapping[str, Any]) -> dict[str, np.ndarray]:
    """Rebuild :func:`encode_columns` output as owned numpy arrays.

    Raises ``ValueError`` for a column that is neither a binary column
    nor a tagged list (a bad binary descriptor included), unknown
    column kinds, ragged lengths or an ``"int"`` list holding
    non-integers -- the caller (WAL read-back or the ingest decoder)
    wraps that in its typed error.
    """
    decoded: dict[str, np.ndarray] = {}
    length: int | None = None
    for name, column in payload.items():
        if isinstance(column, np.ndarray):
            if column.ndim != 1 or column.dtype.kind not in "if":
                raise ValueError(
                    f"column {name!r} is not a flat numeric array"
                )
            wide = np.int64 if column.dtype.kind == "i" else np.float64
            array = np.array(column, dtype=wide)
        elif isinstance(column, dict):
            array = _decode_list(str(name), column)
        else:
            raise ValueError(
                f"column {name!r} is neither a binary column nor a "
                "tagged list"
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
