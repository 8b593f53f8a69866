"""Binomial confidence intervals and the adaptive burst allocator.

A Monte-Carlo BER estimate is a binomial proportion: ``k`` bit errors in
``n`` observed bits.  The sweep engine's adaptive refinement mode needs a
confidence interval on that proportion to decide *where* additional bursts
buy the most statistical precision, and two standard intervals are offered:

* :func:`wilson_interval` — the Wilson score interval, the default.  It is
  closed-form, never degenerates at ``k = 0`` or ``k = n`` (unlike the
  naive Wald interval, whose width collapses to zero exactly where a BER
  sweep needs it most — clean high-SNR points), and its coverage is close
  to nominal even for small ``n``.
* :func:`clopper_pearson_interval` — the exact (conservative) interval from
  Beta-distribution quantiles; guaranteed coverage at the cost of extra
  width.  Requires ``scipy``; the caller gets a clear error when it is
  missing rather than a silent fallback.

Both treat observed bits as independent Bernoulli trials.  Decoded bit
errors are in truth burst-correlated (a frame error flips many bits at
once), so the interval understates the true uncertainty by the within-burst
correlation factor — fine for *allocating* bursts between points, where
only relative widths matter; quote per-burst (PER) intervals when absolute
coverage matters.

:func:`allocate_bursts` turns the widths into a greedy water-filling
allocation: each burst of the budget goes to the point whose *predicted*
interval is currently widest, with the prediction shrinking as
``sqrt(n / (n + added))`` — the large-sample scaling of every binomial
interval.  The allocator is deterministic (ties break on the lowest point
index), which is what lets a re-run of an adaptive sweep replay the same
allocation and be served entirely from the result store.
"""

from __future__ import annotations

import math
from typing import Dict, Literal, Tuple

from repro.exceptions import ConfigurationError

#: Interval methods the dispatching :func:`ber_interval` understands.
INTERVAL_METHODS = ("wilson", "clopper-pearson")

#: The binomial confidence-interval methods ``ber_interval`` accepts.
IntervalMethod = Literal["wilson", "clopper-pearson"]


def _normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Accurate to ~1e-9 over (0, 1) — far below the Monte-Carlo noise these
    intervals summarise — and keeps the default Wilson path dependency-free.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    a = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    b = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    )


def wilson_interval(
    errors: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Wilson score interval for ``errors`` successes in ``trials`` trials.

    Returns ``(0.0, 1.0)`` for zero trials (no information).  The interval
    is never empty: at ``errors = 0`` the upper bound stays positive
    (roughly ``z**2 / n``), correctly reporting that "no errors observed"
    does not mean "error rate is zero".
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly inside (0, 1)")
    if trials < 0 or errors < 0 or errors > trials:
        raise ValueError("need 0 <= errors <= trials")
    if trials == 0:
        return (0.0, 1.0)
    z = _normal_quantile(0.5 + confidence / 2.0)
    n = float(trials)
    p = errors / n
    denominator = 1.0 + z * z / n
    centre = (p + z * z / (2.0 * n)) / denominator
    half = (
        z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denominator
    )
    return (max(0.0, centre - half), min(1.0, centre + half))


def clopper_pearson_interval(
    errors: int, trials: int, confidence: float = 0.95
) -> Tuple[float, float]:
    """Exact Clopper–Pearson interval from Beta quantiles (needs scipy).

    ``lower = BetaInv(alpha/2; k, n-k+1)`` and
    ``upper = BetaInv(1-alpha/2; k+1, n-k)`` with the conventional closures
    ``lower = 0`` at ``k = 0`` and ``upper = 1`` at ``k = n``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly inside (0, 1)")
    if trials < 0 or errors < 0 or errors > trials:
        raise ValueError("need 0 <= errors <= trials")
    if trials == 0:
        return (0.0, 1.0)
    try:
        from scipy.stats import beta
    except ImportError as error:  # pragma: no cover - scipy is in the image
        raise ImportError(
            "clopper_pearson_interval requires scipy; use method='wilson'"
        ) from error
    alpha = 1.0 - confidence
    lower = 0.0 if errors == 0 else float(beta.ppf(alpha / 2.0, errors, trials - errors + 1))
    upper = (
        1.0
        if errors == trials
        else float(beta.ppf(1.0 - alpha / 2.0, errors + 1, trials - errors))
    )
    return (lower, upper)


def ber_interval(
    errors: int,
    trials: int,
    confidence: float = 0.95,
    method: IntervalMethod = "wilson",
) -> Tuple[float, float]:
    """Dispatch to the named interval method (``INTERVAL_METHODS``)."""
    if method == "wilson":
        return wilson_interval(errors, trials, confidence)
    if method == "clopper-pearson":
        return clopper_pearson_interval(errors, trials, confidence)
    raise ConfigurationError(
        f"unknown interval method {method!r}; expected one of {INTERVAL_METHODS}"
    )


def allocate_bursts(
    widths: Dict[int, float],
    observations: Dict[int, int],
    per_burst: Dict[int, int],
    budget: int,
) -> Dict[int, int]:
    """Split a burst budget across points, widest predicted interval first.

    Parameters
    ----------
    widths:
        Current confidence-interval width per point id.
    observations:
        Observed trials (bits) per point id backing each width.
    per_burst:
        Trials one additional burst contributes per point id.
    budget:
        Bursts to hand out.

    Greedy water-filling: each burst goes to the point whose interval,
    after the bursts already allocated to it this round, is predicted to be
    widest (``width * sqrt(n / (n + added))``).  Points whose width is zero
    receive nothing — there is no uncertainty left to spend on.  Ties break
    on the lowest point id, so the allocation is a pure function of its
    inputs.  Returns only the non-zero entries.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if set(widths) != set(observations) or set(widths) != set(per_burst):
        raise ValueError("widths, observations and per_burst must share keys")
    allocation = {index: 0 for index in widths}

    def predicted(index: int) -> float:
        n = max(observations[index], 1)
        added = allocation[index] * max(per_burst[index], 1)
        return widths[index] * math.sqrt(n / (n + added))

    order = sorted(widths)
    for _ in range(budget):
        best = max(order, key=lambda index: (predicted(index), -index))
        if predicted(best) <= 0.0:
            break
        allocation[best] += 1
    return {index: count for index, count in allocation.items() if count > 0}
