"""High-KV-Deviation (HKVD) token selection with gradual filtering.

Paper §4.3: recomputing the tokens whose KV deviates most from the
full-prefill reference removes most of the attention deviation (Insight 1),
and those tokens stay roughly the same across layers (Insight 2).  CacheBlend
therefore fully recomputes the first layer (the paper's layer 1, layer 0 in
this code, which counts layers from 0), ranks tokens by their measured KV
deviation, and on each subsequent layer recomputes a gradually shrinking
subset of the previously selected tokens (Figure 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def ratio_schedule(
    target_ratio: float, n_layers: int, boost: float = 1.5, floor: float = 0.8
) -> list[float]:
    """Per-layer recompute ratios: a linear ramp around *target_ratio*.

    The first selective layer uses ``boost * target_ratio`` (picking slightly
    more candidates than needed, as the paper suggests) and the ratio decays
    linearly to ``floor * target_ratio`` on the last layer.  Ratios are clipped
    to [0, 1].  Before clipping the ramp averages ``(boost + floor) / 2``
    times the target: 1.15 times it with the defaults, not the target itself.
    """
    if not 0.0 <= target_ratio <= 1.0:
        raise ValueError(f"target_ratio must be in [0, 1], got {target_ratio}")
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    if boost < floor:
        raise ValueError("boost must be >= floor")
    if n_layers == 1:
        return [min(1.0, target_ratio * boost)]
    start = target_ratio * boost
    end = target_ratio * floor
    schedule = np.linspace(start, end, n_layers)
    return [float(min(1.0, max(0.0, r))) for r in schedule]


def select_top_fraction(
    deviation: np.ndarray,
    ratio: float,
    candidates: np.ndarray | None = None,
    always_include: np.ndarray | None = None,
) -> np.ndarray:
    """Indices of the top-*ratio* fraction of tokens by deviation.

    Parameters
    ----------
    deviation:
        Per-token deviation over the whole sequence (length ``n_tokens``).
    ratio:
        Fraction of the *whole sequence* to select.
    candidates:
        If given, selection is restricted to these indices (gradual
        filtering: each layer selects among the previous layer's tokens).
    always_include:
        Indices always added to the selection regardless of deviation (the
        new suffix/query tokens, which have no precomputed KV at all).

    Returns sorted unique indices.
    """
    deviation = np.asarray(deviation, dtype=np.float64)
    n_tokens = deviation.size
    if candidates is None:
        candidates = np.arange(n_tokens)
    else:
        candidates = np.asarray(candidates, dtype=np.int64)
    n_select = int(round(ratio * n_tokens))
    n_select = max(0, min(n_select, candidates.size))
    if n_select > 0:
        order = np.argsort(deviation[candidates], kind="stable")[::-1]
        chosen = candidates[order[:n_select]]
    else:
        chosen = np.empty(0, dtype=np.int64)
    if always_include is not None and np.asarray(always_include).size:
        chosen = np.concatenate([chosen, np.asarray(always_include, dtype=np.int64)])
    # Sort, then drop repeats: what np.unique returns, without the numpy.ma
    # import (~15 ms) its first call costs on the request path.
    chosen = np.sort(chosen)
    keep = np.ones(chosen.size, dtype=bool)
    keep[1:] = chosen[1:] != chosen[:-1]
    return chosen[keep]


@dataclass
class HKVDSelector:
    """Stateful HKVD selection across layers (gradual filtering).

    Usage: call :meth:`first_selection` with the per-token deviation measured
    on the fully recomputed first layer, then :meth:`next_selection` once per
    subsequent layer with the deviation measured on the tokens recomputed on
    that layer.
    """

    target_ratio: float
    n_layers: int
    boost: float = 1.5
    floor: float = 0.8
    always_include: np.ndarray | None = None
    schedule: list[float] = field(init=False)
    history: list[np.ndarray] = field(init=False, default_factory=list)
    _layer: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        # The schedule covers layers 1..n_layers-1 (layer 0 is fully
        # recomputed); guard against single-layer models.
        selective_layers = max(1, self.n_layers - 1)
        self.schedule = ratio_schedule(
            self.target_ratio, selective_layers, self.boost, self.floor
        )

    def _ratio_for(self, step: int) -> float:
        if step < len(self.schedule):
            return self.schedule[step]
        return self.schedule[-1]

    def first_selection(self, deviation: np.ndarray) -> np.ndarray:
        """Select HKVD tokens from the fully recomputed first layer."""
        self._layer = 0
        self.history = []
        selected = select_top_fraction(
            deviation,
            self._ratio_for(0),
            candidates=None,
            always_include=self.always_include,
        )
        self.history.append(selected)
        return selected

    def next_selection(self, deviation: np.ndarray) -> np.ndarray:
        """Select the next layer's HKVD tokens among the current ones."""
        if not self.history:
            raise RuntimeError("first_selection must be called before next_selection")
        self._layer += 1
        previous = self.history[-1]
        selected = select_top_fraction(
            deviation,
            self._ratio_for(self._layer),
            candidates=previous,
            always_include=self.always_include,
        )
        self.history.append(selected)
        return selected

    @property
    def selected_counts(self) -> list[int]:
        """Number of tokens selected at each step so far."""
        return [len(indices) for indices in self.history]
