"""Coverage of mc's standard errors on synthetic data with a known value.

Each case draws REPLICATES samples of `trials` values from its own fixed
seed and counts the replicates whose estimate lies more than two reported
standard errors from the known value.  The count must fall in BAND, fixed
before the first run: it is more than four binomial standard deviations
inside the counts that true rates of 4% and 6% give (nominal 4.55%), and
it excludes a stderr scaled by 0.7 (about 16%) or a ratio stderr without
its covariance term (about 0% on the positive pairs, about 15% on the
negative ones).
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from plantedlab.mc import mean_stderr, ratio_with_stderr

REPLICATES = 1000
BAND = (15, 90)  # replicates whose |z| exceeds 2, of REPLICATES
# (case, trials) -> the seed of its replicates
SEEDS = {
    ("mean", 200): 101,
    ("mean", 2000): 102,
    ("positive", 200): 103,
    ("positive", 2000): 104,
    ("negative", 200): 105,
    ("negative", 2000): 106,
}


def _misses(case: str, trials: int) -> int:
    """Replicates whose estimate lies more than two reported stderrs from the known value.

    mean: exponential values, mean 1.  positive: num = 0.6 g + 0.1 h over
    den = g + h, ratio 0.35, covariance +1.4.  negative: num = 4 - g + 0.5 h
    over den = 1 + g, ratio 1, covariance -2.  g and h are Gamma(2, 1).
    """
    rng = np.random.default_rng(SEEDS[case, trials])
    if case == "mean":
        z = [(mean - 1.0) / se for mean, se in map(mean_stderr, rng.exponential(size=(REPLICATES, trials)))]
    else:
        g, h = rng.gamma(2.0, size=(2, REPLICATES, trials))
        num, den, ratio = (0.6 * g + 0.1 * h, g + h, 0.35) if case == "positive" else (4.0 - g + 0.5 * h, 1.0 + g, 1.0)
        z = [(r - ratio) / se for r, se in map(ratio_with_stderr, num, den)]
    return int(np.sum(np.abs(z) > 2.0))


@pytest.mark.parametrize("trials", [200, 2000])
@pytest.mark.parametrize("case", ["mean", "positive", "negative"])
def test_reported_stderr_covers_the_known_value(case, trials):
    lo, hi = BAND
    assert lo <= _misses(case, trials) <= hi


def test_ratio_stderr_is_the_delta_method_with_unbiased_moments():
    # the variances and the covariance divide by T - 1; by hand, in exact fractions
    num, den = [1, 2, 4, 3, 5], [1, 2, 2, 3, 1]
    T = len(num)
    mn, md = Fraction(sum(num), T), Fraction(sum(den), T)

    def moment(x, mx, y, my):
        return sum((a - mx) * (b - my) for a, b in zip(x, y)) / (T - 1)

    var_n, var_d, cov = moment(num, mn, num, mn), moment(den, md, den, md), moment(num, mn, den, md)
    var_ratio = (var_n / md**2 + mn**2 * var_d / md**4 - 2 * mn * cov / md**3) / T
    ratio, stderr = ratio_with_stderr(np.array(num), np.array(den))
    assert math.isclose(ratio, mn / md, rel_tol=1e-15) and math.isclose(stderr, math.sqrt(var_ratio), rel_tol=1e-12)
