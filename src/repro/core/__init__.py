"""CacheBlend core: selective KV recompute and cached knowledge fusion.

This package contains the paper's primary contribution:

* :mod:`repro.core.deviation` — KV deviation and attention deviation metrics
  (paper §4.1, Table 1).
* :mod:`repro.core.hkvd` — High-KV-Deviation token selection with gradual
  filtering across layers (paper §4.3, Figure 9).
* :mod:`repro.core.fusor` — the KV cache fusor performing selective KV
  recompute layer by layer (paper §4.2, Figure 5).
* :mod:`repro.core.controller` — the loading controller choosing recompute
  ratios and storage devices (paper §5.1, Figure 10).
* :mod:`repro.core.pipeline` — the per-layer load/recompute pipeline (paper §5).
* :mod:`repro.core.blend_engine` — the public façade combining all of the
  above with the KV store and the serving cost model.
"""

from repro.core.blend_engine import BlendEngine, BlendResult
from repro.core.controller import ControllerDecision, LoadingController
from repro.core.deviation import attention_deviation, kv_deviation
from repro.core.fusor import FusorConfig, FusionResult, KVFusor
from repro.core.hkvd import HKVDSelector, ratio_schedule
from repro.core.pipeline import PipelineTrace, pipelined_time, sequential_time

__all__ = [
    "BlendEngine",
    "BlendResult",
    "ControllerDecision",
    "LoadingController",
    "attention_deviation",
    "kv_deviation",
    "FusorConfig",
    "FusionResult",
    "KVFusor",
    "HKVDSelector",
    "ratio_schedule",
    "PipelineTrace",
    "pipelined_time",
    "sequential_time",
]
