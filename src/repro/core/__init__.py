"""The paper's core synopses: traditional, concise, and counting samples.

* :class:`~repro.core.reservoir.ReservoirSample` -- Vitter's reservoir
  sampling (the "traditional sample" baseline, [Vit85]).
* :class:`~repro.core.concise.ConciseSample` -- Definition 1/2 with the
  incremental maintenance algorithm of Section 3.1.
* :class:`~repro.core.counting.CountingSample` -- Definition 3 with the
  insert+delete maintenance algorithm of Section 4.1.
* :func:`~repro.core.offline.offline_concise_sample` -- the
  offline/static extraction algorithm of Section 3.
* :func:`~repro.core.convert.counting_to_concise` -- the Section 4
  conversion that turns a counting sample into a concise (uniform)
  sample without base-data access.
* :mod:`~repro.core.thresholds` -- pluggable threshold-raise policies.
"""

from repro.core.backing import BackingSample
from repro.core.base import StreamSynopsis, SynopsisError
from repro.core.concise import ConciseSample
from repro.core.convert import counting_to_concise
from repro.core.counting import CountingSample
from repro.core.footprint import bit_footprint, word_footprint
from repro.core.merge import merge_concise, merge_counting
from repro.core.offline import offline_concise_sample
from repro.core.reservoir import ReservoirSample
from repro.core.thresholds import (
    BinarySearchRaise,
    MultiplicativeRaise,
    SingletonBoundRaise,
    ThresholdPolicy,
)

__all__ = [
    "BackingSample",
    "BinarySearchRaise",
    "ConciseSample",
    "CountingSample",
    "MultiplicativeRaise",
    "ReservoirSample",
    "SingletonBoundRaise",
    "StreamSynopsis",
    "SynopsisError",
    "ThresholdPolicy",
    "bit_footprint",
    "counting_to_concise",
    "merge_concise",
    "merge_counting",
    "offline_concise_sample",
    "word_footprint",
]
