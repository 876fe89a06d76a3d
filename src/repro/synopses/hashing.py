"""Seeded universal hash families for the sketch synopses.

Carter-Wegman multiply-mod-prime hashing over the Mersenne prime
``2^61 - 1``: pairwise independent, cheap, and reproducible from a
seed.
"""

from __future__ import annotations

from repro.randkit.rng import ReproRandom

__all__ = ["PairwiseHash", "bit_hash_position"]

_MERSENNE_PRIME = (1 << 61) - 1


class PairwiseHash:
    """A pairwise-independent hash ``h(x) = ((a x + b) mod p) mod m``."""

    def __init__(self, buckets: int, seed: int) -> None:
        if buckets < 1:
            raise ValueError("buckets must be positive")
        rng = ReproRandom(seed)
        self.buckets = buckets
        self._a = rng.randint(1, _MERSENNE_PRIME - 1)
        self._b = rng.randint(0, _MERSENNE_PRIME - 1)

    def __call__(self, value: int) -> int:
        return (
            (self._a * value + self._b) % _MERSENNE_PRIME
        ) % self.buckets

    def raw(self, value: int) -> int:
        """The full-range hash before bucket reduction."""
        return (self._a * value + self._b) % _MERSENNE_PRIME


def bit_hash_position(hashed: int, max_bits: int = 61) -> int:
    """Position of the lowest set bit (geometric with p=1/2 per level).

    This is the ``rho`` function of Flajolet-Martin: a uniformly hashed
    value lands at bit position ``j`` with probability ``2^-(j+1)``.
    Values hashing to zero land at the top position.
    """
    if hashed == 0:
        return max_bits - 1
    position = (hashed & -hashed).bit_length() - 1
    return min(position, max_bits - 1)
