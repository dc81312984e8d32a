"""Statistics for benchmark reporting.

The paper: "We ran each data point ten times, and we report the mean
and 99% confidence intervals according to Student's t-test."  The same
computation lives here (scipy provides the t quantile when installed;
a pure-Python incomplete-beta inversion otherwise, so the benchmark
harness has no hard scientific-stack dependency).
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

from repro._compat import HAVE_SCIPY
from repro.errors import ConfigurationError


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the regularized incomplete beta."""
    eps, fpmin = 3e-14, 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def _t_cdf(t: float, df: float) -> float:
    """CDF of Student's t with ``df`` degrees of freedom."""
    x = df / (df + t * t)
    p = 0.5 * _betainc(df / 2.0, 0.5, x)
    return 1.0 - p if t > 0 else p


def _t_ppf(p: float, df: float) -> float:
    """Student-t quantile by bisection on the CDF (p in (0, 1))."""
    if not 0.0 < p < 1.0:
        raise ConfigurationError("p must be in (0, 1)")
    lo, hi = -1.0, 1.0
    while _t_cdf(lo, df) > p:
        lo *= 2.0
    while _t_cdf(hi, df) < p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-12 * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def _t_quantile(p: float, df: int) -> float:
    """Student-t quantile: scipy's when installed, else :func:`_t_ppf`.

    scipy is imported here, on first use, so that importing the
    package (the CLI, the daemon, the fleet) never pays for it.
    """
    if HAVE_SCIPY:
        try:
            from scipy import stats as scipy_stats
        except ImportError:  # pragma: no cover - found but unimportable
            pass
        else:
            return float(scipy_stats.t.ppf(p, df=df))
    return _t_ppf(p, df)


def confidence_interval(
    samples: Sequence[float], confidence: float = 0.99
) -> Tuple[float, float]:
    """Mean and half-width of the Student-t confidence interval.

    With a single sample the half-width is reported as 0 (no spread
    information), matching common bench-harness behaviour.
    """
    if not samples:
        raise ConfigurationError("need at least one sample")
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError("confidence must be in (0, 1)")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return mean, 0.0
    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    sem = math.sqrt(variance / n)
    p = (1 + confidence) / 2
    return mean, _t_quantile(p, n - 1) * sem


def summarize(samples: Sequence[float], confidence: float = 0.99) -> str:
    """Human-readable ``mean ± halfwidth`` string."""
    mean, half = confidence_interval(samples, confidence)
    return f"{mean:.3f} ± {half:.3f}"
