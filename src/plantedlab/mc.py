"""Small Monte-Carlo helpers: the serial trial loop and summary statistics."""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import IllConditionedError, ParameterError


# The third parameter is ignored: perfbench/tracing.py calls run_trials with three positional arguments.
def run_trials(n: int, fn: Callable[[int], object], _ignored=None) -> list:
    """Evaluate fn(0..n-1) serially; results are returned in index order."""
    return [fn(t) for t in range(n)]


def mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    """Sample mean and its standard error; raises ParameterError on no values or a mean that is not finite."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ParameterError("no values to average; need at least one sample")
    mean = float(arr.mean())
    if not math.isfinite(mean):
        raise ParameterError(f"values have mean {mean}; need finite values")
    if arr.size == 1:
        return (mean, 0.0)
    return (mean, float(arr.std(ddof=1) / math.sqrt(arr.size)))


def ratio_with_stderr(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """Delta-method stderr for mean(num)/mean(den) over paired samples.

    Raises IllConditionedError unless mean(den) is a positive finite number,
    and then ParameterError unless mean(num) is finite.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    T = num.size
    mn, md = num.mean(), den.mean()
    if not (0.0 < md < math.inf):
        raise IllConditionedError(f"ratio denominator has mean {float(md)}; need a positive finite mean")
    if not math.isfinite(mn):
        raise ParameterError(f"ratio numerator has mean {float(mn)}; need finite values")
    ratio = mn / md
    if T < 2:
        return (float(ratio), 0.0)
    var_n = num.var(ddof=1)
    var_d = den.var(ddof=1)
    cov = float(np.cov(num, den, ddof=1)[0, 1])
    var_ratio = (var_n / md**2 + mn**2 * var_d / md**4 - 2 * mn * cov / md**3) / T
    return (float(ratio), math.sqrt(max(var_ratio, 0.0)))
