"""Small Monte-Carlo helpers: ordered trial execution and summary statistics."""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

from .errors import IllConditionedError

THREADS_ENV_VAR = "PLANTEDLAB_THREADS"


def default_threads() -> int:
    try:
        return max(1, int(os.environ.get(THREADS_ENV_VAR, "1")))
    except ValueError:
        return 1


def run_trials(n: int, fn: Callable[[int], object], threads: int = 1) -> list:
    """Evaluate fn(0..n-1); results are returned in index order.

    Per-trial work must derive its own randomness from the trial index, so the
    output is identical for any thread count.
    """
    if threads <= 1:
        return [fn(t) for t in range(n)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n)))


def mean_stderr(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return (math.nan, math.nan)
    if arr.size == 1:
        return (float(arr[0]), 0.0)
    return (float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size)))


def ratio_with_stderr(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """Delta-method stderr for mean(num)/mean(den) over paired samples.

    Raises IllConditionedError unless mean(den) is a positive finite number.
    """
    num = np.asarray(num, dtype=float)
    den = np.asarray(den, dtype=float)
    T = num.size
    mn, md = num.mean(), den.mean()
    if not (0.0 < md < math.inf):
        raise IllConditionedError(f"ratio denominator has mean {float(md)}; need a positive finite mean")
    ratio = mn / md
    if T < 2:
        return (float(ratio), 0.0)
    var_n = num.var(ddof=1)
    var_d = den.var(ddof=1)
    cov = float(np.cov(num, den, ddof=1)[0, 1])
    var_ratio = (var_n / md**2 + mn**2 * var_d / md**4 - 2 * mn * cov / md**3) / T
    return (float(ratio), math.sqrt(max(var_ratio, 0.0)))
