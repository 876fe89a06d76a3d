"""Sampling-based estimators over (concise) samples.

"A concise sample ... can be used as a uniform random sample in any
sampling-based technique for providing approximate query answers"
(Section 3).  These estimators consume a uniform sample -- as points,
or as the ``(value, count)`` pairs of a sample's ``columnar_view()``,
which they never expand -- and return estimates with the confidence
intervals the approximate answer engine attaches to its responses.
Because concise samples provide more sample points at equal footprint,
every estimator here gets tighter intervals from them.
"""

from repro.estimators.aggregates import (
    estimate_average,
    estimate_count,
    estimate_sum,
)
from repro.estimators.distinct import (
    first_order_jackknife,
    guaranteed_error_estimator,
)
from repro.estimators.intervals import (
    ConfidenceInterval,
    clt_interval,
    empirical_bernstein_interval,
    hoeffding_count_interval,
    normal_quantile,
    wilson_interval,
)
from repro.estimators.joins import (
    join_size_from_hotlists,
    join_size_from_samples,
)
from repro.estimators.moments import (
    estimate_frequency_moment,
    sample_size_gain,
)
from repro.estimators.selectivity import (
    Predicate,
    estimate_selectivity,
)

__all__ = [
    "ConfidenceInterval",
    "Predicate",
    "clt_interval",
    "empirical_bernstein_interval",
    "estimate_average",
    "estimate_count",
    "estimate_frequency_moment",
    "estimate_selectivity",
    "estimate_sum",
    "first_order_jackknife",
    "guaranteed_error_estimator",
    "hoeffding_count_interval",
    "join_size_from_hotlists",
    "join_size_from_samples",
    "normal_quantile",
    "sample_size_gain",
    "wilson_interval",
]
