"""Hot lists over attribute pairs/tuples (paper footnote 4).

"For simplicity, we describe our algorithms ... in terms of a single
attribute, although the approaches apply equally well to pairs of
attributes, etc."  The engine supports this by packing each row's
values for a declared attribute tuple into a single integer and
feeding the ordinary synopses; this module provides the packing and
the answer-decoding helpers.

Unlike :mod:`repro.itemsets.encoding` (sorted, distinct items), the
composite encoding is for *ordered* tuples whose components may
repeat.
"""

from __future__ import annotations

import numpy as np

from repro.hotlist.base import HotListAnswer

__all__ = [
    "composite_name",
    "decode_composite",
    "decode_composite_answer",
    "encode_composite",
    "encode_composite_array",
]

_COMPONENT_BITS = 24
_COMPONENT_MASK = (1 << _COMPONENT_BITS) - 1
MAX_COMPONENT = _COMPONENT_MASK


def composite_name(attributes: tuple[str, ...]) -> str:
    """The canonical registry name of an attribute tuple."""
    if len(attributes) < 2:
        raise ValueError("a composite needs at least two attributes")
    return "+".join(attributes)


def encode_composite(values: tuple[int, ...]) -> int:
    """Pack an ordered tuple of small non-negative ints into one int."""
    if len(values) < 2:
        raise ValueError("a composite needs at least two components")
    encoded = 1  # sentinel bit keeps leading zero components distinct
    for value in values:
        if not 0 <= value <= MAX_COMPONENT:
            raise ValueError(
                f"component {value} out of range [0, {MAX_COMPONENT}]"
            )
        encoded = (encoded << _COMPONENT_BITS) | value
    return encoded


def encode_composite_array(
    components: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Vectorized :func:`encode_composite` over whole columns.

    Only pairs fit: the sentinel bit plus two 24-bit components needs
    49 bits, within int64; three components need 73 and would
    overflow.  Raises :class:`ValueError` for arity >= 3, which the
    engine's composite hot lists never register.
    """
    if len(components) < 2:
        raise ValueError("a composite needs at least two components")
    if len(components) > 2:
        raise ValueError(
            "vectorized encoding supports only attribute pairs "
            "(wider tuples overflow int64)"
        )
    first = np.asarray(components[0], dtype=np.int64)
    second = np.asarray(components[1], dtype=np.int64)
    for column in (first, second):
        if column.size and (
            column.min() < 0 or column.max() > MAX_COMPONENT
        ):
            raise ValueError(
                f"component out of range [0, {MAX_COMPONENT}]"
            )
    sentinel = np.int64(1) << np.int64(2 * _COMPONENT_BITS)
    return sentinel | (first << np.int64(_COMPONENT_BITS)) | second


def decode_composite(encoded: int, arity: int) -> tuple[int, ...]:
    """Invert :func:`encode_composite` for a known tuple arity."""
    if arity < 2:
        raise ValueError("arity must be at least two")
    components = []
    for _ in range(arity):
        components.append(encoded & _COMPONENT_MASK)
        encoded >>= _COMPONENT_BITS
    if encoded != 1:
        raise ValueError("not a composite of the given arity")
    return tuple(reversed(components))


def decode_composite_answer(
    answer: HotListAnswer, arity: int
) -> list[tuple[tuple[int, ...], float]]:
    """Decode a hot-list answer over composites into value tuples."""
    return [
        (decode_composite(entry.value, arity), entry.estimated_count)
        for entry in answer
    ]
