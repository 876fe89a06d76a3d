"""Companion synopsis data structures from the paper's related work.

The approximate answer engine of Figure 2 maintains "various summary
statistics" -- concise and counting samples are the paper's new ones,
and this package supplies the classical synopses the paper builds on or
cites for context, so the engine is a usable approximate-query system:

* :class:`~repro.synopses.fm.FlajoletMartinSketch` -- probabilistic
  distinct-value counting [FM85].
* equi-depth, Compressed and high-biased histograms
  [GMP97b, PIHS96, IC93] for range-selectivity estimation.
"""

from repro.synopses.fm import FlajoletMartinSketch
from repro.synopses.histogram_compressed import CompressedHistogram
from repro.synopses.histogram_equidepth import EquiDepthHistogram
from repro.synopses.histogram_highbiased import HighBiasedHistogram
from repro.synopses.histogram_vopt import VOptimalHistogram

__all__ = [
    "CompressedHistogram",
    "EquiDepthHistogram",
    "FlajoletMartinSketch",
    "HighBiasedHistogram",
    "VOptimalHistogram",
]
