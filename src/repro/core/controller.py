"""Loading controller: recompute-ratio and storage-device selection (paper §5.1).

The controller answers the two practical questions the paper poses:

1. *Given a storage device, which recompute ratio keeps the selective
   recompute hidden behind KV loading?*  It picks the ratio where the
   per-layer recompute delay equals the per-layer loading delay, and never
   goes below the minimum ratio ``r*`` that preserves generation quality
   (empirically 15 %, Figure 16).
2. *Given a fixed recompute ratio, which storage device should KV caches be
   kept on?*  It picks the cheapest device whose loading delay still covers
   the recompute delay (Figure 10b).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kvstore.device import StorageDevice
from repro.serving.costmodel import ServingCostModel


@dataclass(frozen=True)
class ControllerDecision:
    """Outcome of a controller query for one request."""

    recompute_ratio: float
    device: StorageDevice
    load_time_per_layer: float
    recompute_time_per_layer: float

    @property
    def recompute_hidden(self) -> bool:
        """True when loading fully hides the selective recompute."""
        return self.recompute_time_per_layer <= self.load_time_per_layer + 1e-12


@dataclass
class LoadingController:
    """Chooses recompute ratios and storage devices for CacheBlend.

    Parameters
    ----------
    cost_model:
        Delay estimators for the served model.
    min_quality_ratio:
        The paper's ``r*``: the smallest recompute ratio with negligible
        quality loss (default 0.15).
    max_ratio:
        Upper bound on the chosen ratio (1.0 recomputes everything).
    """

    cost_model: ServingCostModel
    min_quality_ratio: float = 0.15
    max_ratio: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_quality_ratio <= self.max_ratio <= 1.0:
            raise ValueError("require 0 <= min_quality_ratio <= max_ratio <= 1")

    # ------------------------------------------------------------------
    def pick_recompute_ratio(self, n_context_tokens: int, device: StorageDevice) -> float:
        """Largest ratio whose recompute stays hidden behind loading (>= r*).

        The per-layer recompute delay is ``ratio x prefill_layer_time``, so the
        break-even ratio is ``load_layer_time / prefill_layer_time``.  The
        result is clamped to ``[min_quality_ratio, max_ratio]`` — even with an
        infinitely fast device the controller keeps recomputing ``r*`` of the
        tokens to protect quality.
        """
        if n_context_tokens <= 0:
            return self.min_quality_ratio
        prefill_layer = self.cost_model.prefill_layer_time(n_context_tokens)
        load_layer = self.cost_model.kv_load_time_per_layer(n_context_tokens, device)
        if prefill_layer <= 0.0:
            return self.min_quality_ratio
        break_even = load_layer / prefill_layer
        ratio = max(self.min_quality_ratio, break_even)
        return min(self.max_ratio, ratio)

    # ------------------------------------------------------------------
    def choose_device(
        self,
        n_context_tokens: int,
        devices: list[StorageDevice],
        ratio: float | None = None,
    ) -> StorageDevice:
        """Cheapest device whose loading delay hides the recompute at *ratio*.

        If no device can hide the recompute (all of them are faster than the
        recompute — which never hurts latency), the cheapest device overall is
        returned; if some devices are too slow, they are excluded.
        """
        if not devices:
            raise ValueError("choose_device needs at least one candidate device")
        ratio = self.min_quality_ratio if ratio is None else ratio
        recompute_layer = self.cost_model.recompute_layer_time(n_context_tokens, ratio)

        def monthly_cost(device: StorageDevice) -> float:
            return self.cost_model.kv_store_cost(n_context_tokens, device)

        # Devices whose loading does not add delay beyond the recompute floor:
        # loading must not be slower than the recompute it needs to hide.
        viable = [
            device
            for device in devices
            if self.cost_model.kv_load_time_per_layer(n_context_tokens, device)
            <= recompute_layer + 1e-12
        ]
        candidates = viable if viable else devices
        return min(candidates, key=monthly_cost)

    # ------------------------------------------------------------------
    def decide(
        self,
        n_context_tokens: int,
        devices: list[StorageDevice] | None = None,
        device: StorageDevice | None = None,
    ) -> ControllerDecision:
        """Full controller decision for one request.

        Either a fixed *device* is given (question 1: pick the ratio) or a
        list of candidate *devices* is given (question 2: pick the cheapest
        device at the quality-preserving ratio, then pick the ratio for it).
        """
        if device is None and not devices:
            raise ValueError("decide() needs either a device or a list of devices")
        if device is None:
            device = self.choose_device(n_context_tokens, devices, self.min_quality_ratio)
        ratio = self.pick_recompute_ratio(n_context_tokens, device)
        return ControllerDecision(
            recompute_ratio=ratio,
            device=device,
            load_time_per_layer=self.cost_model.kv_load_time_per_layer(
                n_context_tokens, device
            ),
            # Priced on the context tokens the ratio applies to, as the
            # break-even in pick_recompute_ratio is.
            recompute_time_per_layer=self.cost_model.recompute_layer_time(
                n_context_tokens, ratio
            ),
        )
