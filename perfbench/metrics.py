"""Percentiles and the metrics derived from a served window.

Pure functions over the serving loop's timeline, so the tests can feed them a
synthetic one.
"""

from __future__ import annotations

import math

import numpy as np

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (linear interpolation) of *values*.

    Refuses (``ValueError``) when fewer than :data:`MIN_BEYOND` samples lie
    beyond it: with ``n`` samples that is ``n * (1 - q/100) < 10``.
    """
    values = np.asarray(values, dtype=np.float64)
    beyond = math.floor(values.size * (100.0 - q) / 100.0 + 1e-9)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {values.size} samples has {beyond} beyond it; need >= {MIN_BEYOND}"
        )
    return float(np.percentile(values, q))


def ttft(sent: float, token_times: list[float]) -> float:
    """Time to first token: from the send (or scheduled send) time to the
    return of the call that yielded the first token."""
    return token_times[0] - sent


def gaps(token_times: list[float]) -> list[float]:
    """Gaps between one request's consecutive output tokens."""
    return [b - a for a, b in zip(token_times, token_times[1:])]


def failed(outcome, mismatched: set[int]) -> bool:
    """Raised, came back short without EOS, or failed the output check."""
    return (
        outcome.error is not None
        or not outcome.done
        or (len(outcome.tokens) < outcome.request.max_new_tokens and not outcome.eos)
        or outcome.request.rid in mismatched
    )


def meets_slo(outcome, ttft_limit_s: float, itl_limit_s: float) -> bool:
    if not outcome.token_times:
        return False
    return ttft(outcome.sent, outcome.token_times) <= ttft_limit_s and max(
        gaps(outcome.token_times), default=0.0
    ) <= itl_limit_s


def serving_metrics(outcomes, mismatched: set[int], window_s: float, wl) -> dict[str, float]:
    """TTFT/ITL percentiles, throughput, SLO attainment and the ok share,
    over every *sent* request (failed ones count as SLO misses)."""
    ok = [o for o in outcomes if not failed(o, mismatched)]
    ttfts = [ttft(o.sent, o.token_times) for o in ok if o.token_times]
    itls = [g for o in ok for g in gaps(o.token_times)]
    tokens = sum(len(o.tokens) for o in ok)
    n = len(outcomes)
    return {
        "ttft_p50_s": percentile(ttfts, 50),
        "ttft_p90_s": percentile(ttfts, 90),
        "itl_p50_s": percentile(itls, 50),
        "itl_p99_s": percentile(itls, 99),
        "output_tok_s": tokens / window_s,
        "slo_attain": sum(meets_slo(o, wl.ttft_limit_s, wl.itl_limit_s) for o in ok) / n,
        "ok_frac": len(ok) / n,
    }


def where_time_goes(self_times: dict[str, float], wall_s: float) -> list[tuple[str, float, float]]:
    """Rows ``(layer, self seconds, share of wall)``, largest first; the
    part of the wall no span covers is the serving loop's own time."""
    by_layer: dict[str, float] = {}
    for name, seconds in self_times.items():
        layer = name.split(".", 1)[0]
        if name == "driver.idle":
            layer = "idle"
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    by_layer["driver"] = by_layer.get("driver", 0.0) + max(
        0.0, wall_s - sum(self_times.values())
    )
    rows = [(layer, s, s / wall_s) for layer, s in by_layer.items()]
    return sorted(rows, key=lambda row: -row[1])
