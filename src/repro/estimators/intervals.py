"""Confidence intervals for sampling-based estimates.

The approximate answer engine returns "an approximate answer and an
accuracy measure (e.g., a 95% confidence interval for numerical
answers)" (Section 1).  Two interval families are provided: the usual
central-limit intervals, and distribution-free Hoeffding intervals for
proportions/counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "ConfidenceInterval",
    "clt_interval",
    "empirical_bernstein_interval",
    "hoeffding_count_interval",
    "normal_quantile",
    "wilson_interval",
]


@dataclass(frozen=True)
class ConfidenceInterval:
    """An interval ``[low, high]`` holding with the stated confidence."""

    low: float
    high: float
    confidence: float

    @property
    def width(self) -> float:
        """The interval width."""
        return self.high - self.low

    @property
    def midpoint(self) -> float:
        """The interval midpoint."""
        return (self.low + self.high) / 2.0

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high


def normal_quantile(p: float) -> float:
    """The standard normal quantile (inverse CDF) at ``p``.

    Acklam's rational approximation -- relative error below 1.15e-9
    across the open unit interval -- so the library needs no scipy at
    runtime.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be strictly between 0 and 1")
    # Coefficients for the central and tail regions.
    a = (
        -3.969683028665376e+01, 2.209460984245205e+02,
        -2.759285104469687e+02, 1.383577518672690e+02,
        -3.066479806614716e+01, 2.506628277459239e+00,
    )
    b = (
        -5.447609879822406e+01, 1.615858368580409e+02,
        -1.556989798598866e+02, 6.680131188771972e+01,
        -1.328068155288572e+01,
    )
    c = (
        -7.784894002430293e-03, -3.223964580411365e-01,
        -2.400758277161838e+00, -2.549732539343734e+00,
        4.374664141464968e+00, 2.938163982698783e+00,
    )
    d = (
        7.784695709041462e-03, 3.224671290700398e-01,
        2.445134137142996e+00, 3.754408661907416e+00,
    )
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q
            + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        return (
            (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5])
            * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)
        )
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(
        ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
    ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)


def clt_interval(
    estimate: float,
    standard_error: float,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """A central-limit interval ``estimate +- z * standard_error``."""
    if standard_error < 0:
        raise ValueError("standard_error must be non-negative")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    z = normal_quantile(0.5 + confidence / 2.0)
    margin = z * standard_error
    return ConfidenceInterval(
        estimate - margin, estimate + margin, confidence
    )


def wilson_interval(
    matching: int,
    sample_size: int,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """The Wilson score interval for a Bernoulli proportion.

    Better-behaved than the Wald/CLT interval at extreme proportions
    and small samples (it never escapes ``[0, 1]`` and stays informative
    when ``matching`` is 0 or ``sample_size``), making it the right
    default for selectivities of rare predicates.
    """
    if sample_size < 1:
        raise ValueError("sample_size must be positive")
    if not 0 <= matching <= sample_size:
        raise ValueError("matching must be within the sample size")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    z = normal_quantile(0.5 + confidence / 2.0)
    n = sample_size
    proportion = matching / n
    denominator = 1.0 + z * z / n
    centre = (proportion + z * z / (2 * n)) / denominator
    margin = (
        z
        * math.sqrt(
            proportion * (1 - proportion) / n + z * z / (4 * n * n)
        )
        / denominator
    )
    # At the degenerate proportions the score interval ends exactly at
    # 0 or 1; rounding must not push the estimate outside it.
    low = 0.0 if matching == 0 else max(0.0, centre - margin)
    high = 1.0 if matching == n else min(1.0, centre + margin)
    return ConfidenceInterval(low, high, confidence)


def hoeffding_count_interval(
    matching: int,
    sample_size: int,
    population: int,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """A distribution-free interval for a scaled count estimate.

    With ``matching`` of ``sample_size`` sample points satisfying a
    predicate, the count estimate is ``population * matching /
    sample_size``; Hoeffding's inequality bounds the proportion's
    deviation by ``sqrt(ln(2/delta) / (2 sample_size))`` with
    probability ``1 - delta``.
    """
    if sample_size < 1:
        raise ValueError("sample_size must be positive")
    if not 0 <= matching <= sample_size:
        raise ValueError("matching must be within the sample size")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    proportion = matching / sample_size
    delta = 1.0 - confidence
    margin = math.sqrt(math.log(2.0 / delta) / (2.0 * sample_size))
    return ConfidenceInterval(
        max(0.0, (proportion - margin)) * population,
        min(1.0, (proportion + margin)) * population,
        confidence,
    )


def empirical_bernstein_interval(
    mean: float,
    variance: float,
    value_range: float,
    sample_size: int,
    confidence: float = 0.95,
) -> ConfidenceInterval:
    """A distribution-free interval around a bounded-sample mean.

    The Maurer-Pontil empirical Bernstein bound: for ``m`` i.i.d.
    samples taking values in an interval of width ``R`` with empirical
    variance ``V``, the sample mean deviates from the true mean by at
    most ``sqrt(2 V ln(3/delta) / m) + 3 R ln(3/delta) / m`` with
    probability ``1 - delta``.  Unlike the CLT interval this holds at
    any finite ``m``, so empirical coverage can never dip below the
    claimed confidence -- the property calibration auditing needs.
    Unlike plain Hoeffding it adapts to the observed variance, so for
    concentrated data it is not hopelessly wide.
    """
    if sample_size < 1:
        raise ValueError("sample_size must be positive")
    if variance < 0:
        raise ValueError("variance must be non-negative")
    if value_range < 0:
        raise ValueError("value_range must be non-negative")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    log_term = math.log(3.0 / (1.0 - confidence))
    margin = (
        math.sqrt(2.0 * variance * log_term / sample_size)
        + 3.0 * value_range * log_term / sample_size
    )
    return ConfidenceInterval(mean - margin, mean + margin, confidence)
