"""Paper-style RAG workload synthesis.

The paper's serving experiments (§6.1) replay multi-chunk RAG queries from
four datasets — 2WikiMQA, Musique, SAMSum and MultiNews — whose requests
differ in how many chunks they retrieve, how long the chunks are and how long
the user suffix/answer are.  :class:`WorkloadGenerator` reproduces that shape
synthetically:

* arrivals follow a Poisson process at a configurable request rate — or one
  of two overload-inducing presets: ``bursty`` (on/off bursts several times
  the nominal rate followed by idle gaps) and ``diurnal`` (a sinusoidally
  modulated rate), both preserving the long-run average rate;
* per-request chunk count, chunk length, suffix length and output length are
  sampled from per-dataset distributions (:class:`DatasetSpec` presets);
* chunk *identity* is sampled from a Zipf popularity law over a corpus of
  unique chunks, and replaying the accesses through a real LRU chunk KV store
  (:func:`~repro.bench.replay.replay_request`) converts the resulting reuse
  into per-request ``cached_chunk_fraction`` / ``prefix_cached_fraction``
  values, so prefix-caching and full-reuse hit rates vary realistically with
  popularity skew and cache capacity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.bench.replay import chunk_store_config, replay_request
from repro.serving.request import GenerationRequest


@dataclass(frozen=True)
class DatasetSpec:
    """Request-shape distributions of one evaluation dataset.

    Chunk/suffix/output token counts are sampled from normal distributions
    clipped to sensible minima; the chunk count is uniform over
    ``[min_chunks, max_chunks]``.
    """

    name: str
    min_chunks: int
    max_chunks: int
    chunk_tokens_mean: float
    chunk_tokens_std: float
    suffix_tokens_mean: float
    suffix_tokens_std: float
    output_tokens_mean: float
    output_tokens_std: float

    def __post_init__(self) -> None:
        if not 1 <= self.min_chunks <= self.max_chunks:
            raise ValueError("need 1 <= min_chunks <= max_chunks")
        if self.chunk_tokens_mean < 1:
            raise ValueError("chunk_tokens_mean must be >= 1")


#: Dataset presets mirroring the paper's four workloads (§6.1): multi-hop QA
#: datasets retrieve several mid-size passages with short answers, SAMSum has
#: short dialogue chunks, MultiNews has long articles and long summaries.
DATASET_PRESETS: dict[str, DatasetSpec] = {
    "2wikimqa": DatasetSpec(
        name="2wikimqa", min_chunks=4, max_chunks=8,
        chunk_tokens_mean=512.0, chunk_tokens_std=96.0,
        suffix_tokens_mean=32.0, suffix_tokens_std=8.0,
        output_tokens_mean=32.0, output_tokens_std=8.0,
    ),
    "musique": DatasetSpec(
        name="musique", min_chunks=4, max_chunks=10,
        chunk_tokens_mean=400.0, chunk_tokens_std=80.0,
        suffix_tokens_mean=40.0, suffix_tokens_std=10.0,
        output_tokens_mean=24.0, output_tokens_std=6.0,
    ),
    "samsum": DatasetSpec(
        name="samsum", min_chunks=2, max_chunks=6,
        chunk_tokens_mean=220.0, chunk_tokens_std=60.0,
        suffix_tokens_mean=24.0, suffix_tokens_std=6.0,
        output_tokens_mean=48.0, output_tokens_std=12.0,
    ),
    "multinews": DatasetSpec(
        name="multinews", min_chunks=3, max_chunks=8,
        chunk_tokens_mean=700.0, chunk_tokens_std=160.0,
        suffix_tokens_mean=48.0, suffix_tokens_std=12.0,
        output_tokens_mean=128.0, output_tokens_std=32.0,
    ),
}


#: Supported arrival-process presets.  ``poisson`` is the plain open-loop
#: process; ``bursty`` alternates short bursts at ``BURST_FACTOR`` times the
#: nominal rate with idle gaps sized to keep the long-run average; ``diurnal``
#: modulates the instantaneous rate sinusoidally over the stream.  The two
#: non-Poisson presets create transient overload windows (arrival rate above
#: service capacity) without changing the mean load, which is exactly the
#: regime SLO admission control and decode preemption are measured under.
ARRIVAL_PATTERNS = ("poisson", "bursty", "diurnal")

#: Bursty preset shape: requests per burst and the in-burst rate multiplier.
BURST_LENGTH = 8
BURST_FACTOR = 4.0

#: Diurnal preset shape: rate swing amplitude (±80 % of nominal) and cycles
#: over the generated stream.
DIURNAL_AMPLITUDE = 0.8
DIURNAL_CYCLES = 2.0


def get_dataset(name: str) -> DatasetSpec:
    """Return a dataset preset by name with a helpful error on typos."""
    try:
        return DATASET_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(DATASET_PRESETS))
        raise KeyError(f"unknown dataset {name!r}; known datasets: {known}") from None


@dataclass
class WorkloadStats:
    """Aggregate reuse statistics of one generated request stream."""

    n_requests: int = 0
    n_chunk_accesses: int = 0
    chunk_hit_rate: float = 0.0
    mean_cached_chunk_fraction: float = 0.0
    mean_prefix_cached_fraction: float = 0.0
    mean_context_tokens: float = 0.0
    cache: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict[str, object]:
        return {
            "n_requests": self.n_requests,
            "n_chunk_accesses": self.n_chunk_accesses,
            "chunk_hit_rate": self.chunk_hit_rate,
            "mean_cached_chunk_fraction": self.mean_cached_chunk_fraction,
            "mean_prefix_cached_fraction": self.mean_prefix_cached_fraction,
            "mean_context_tokens": self.mean_context_tokens,
            "cache": dict(self.cache),
        }


@dataclass
class WorkloadGenerator:
    """Synthesizes paper-style RAG request streams.

    Parameters
    ----------
    dataset:
        A :class:`DatasetSpec` or the name of a preset.
    request_rate:
        Long-run average arrival rate in requests per second.
    arrival_pattern:
        One of :data:`ARRIVAL_PATTERNS`.  ``poisson`` (default) keeps the
        plain open-loop process; ``bursty`` and ``diurnal`` concentrate the
        same average load into transient overload windows.
    ttft_slo_s:
        When set, every generated request carries this TTFT deadline
        (:attr:`~repro.serving.request.GenerationRequest.deadline_s`), so
        SLO admission control and goodput accounting apply downstream.
    n_unique_chunks:
        Size of the chunk corpus requests draw from.
    zipf_alpha:
        Popularity skew of chunk accesses (``p(rank) ∝ rank**-alpha``).
        Higher values concentrate traffic on few hot chunks and raise hit
        rates; ``0`` is uniform.
    cache_chunk_capacity:
        Capacity (in chunks) of the LRU chunk KV store the accesses are
        replayed through to derive per-request cached fractions.
    seed:
        RNG seed; streams are fully deterministic given the configuration.
    """

    dataset: DatasetSpec | str = "2wikimqa"
    request_rate: float = 1.0
    arrival_pattern: str = "poisson"
    ttft_slo_s: float | None = None
    n_unique_chunks: int = 400
    zipf_alpha: float = 1.0
    cache_chunk_capacity: int = 160
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.dataset, str):
            self.dataset = get_dataset(self.dataset)
        if self.request_rate <= 0:
            raise ValueError("request_rate must be positive")
        if self.arrival_pattern not in ARRIVAL_PATTERNS:
            raise ValueError(
                f"unknown arrival_pattern {self.arrival_pattern!r}; "
                f"expected one of {ARRIVAL_PATTERNS}"
            )
        if self.ttft_slo_s is not None and self.ttft_slo_s <= 0:
            raise ValueError("ttft_slo_s must be positive when set")
        if self.n_unique_chunks < 1:
            raise ValueError("n_unique_chunks must be >= 1")
        if self.zipf_alpha < 0:
            raise ValueError("zipf_alpha must be >= 0")
        self.stats = WorkloadStats()
        #: Per-request chunk ids of the last :meth:`generate` call — the
        #: access trace a sweep replays through other stores.
        self.chunk_ids: list[list[int]] = []

    # ------------------------------------------------------------------
    def _popularity(self) -> np.ndarray:
        ranks = np.arange(1, self.n_unique_chunks + 1, dtype=np.float64)
        weights = ranks ** (-self.zipf_alpha)
        return weights / weights.sum()

    @staticmethod
    def _clipped_int(rng: np.random.Generator, mean: float, std: float, low: int) -> int:
        return max(low, int(round(rng.normal(mean, std))))

    def _arrivals(self, rng: np.random.Generator, n_requests: int) -> np.ndarray:
        """Sample arrival times under the configured arrival pattern.

        All three presets share the same long-run average rate; the bursty
        and diurnal ones redistribute the arrivals in time so the stream
        alternates between overload (arrivals faster than service) and slack.
        """
        if self.arrival_pattern == "poisson":
            gaps = rng.exponential(1.0 / self.request_rate, size=n_requests)
        elif self.arrival_pattern == "bursty":
            # On/off process: bursts of BURST_LENGTH requests arrive at
            # BURST_FACTOR× the nominal rate; each burst boundary inserts an
            # idle gap whose mean restores the long-run average, so the
            # in-burst windows are genuine transient overload.
            gaps = rng.exponential(
                1.0 / (BURST_FACTOR * self.request_rate), size=n_requests
            )
            positions = np.arange(n_requests)
            boundary = (positions > 0) & (positions % BURST_LENGTH == 0)
            mean_idle = BURST_LENGTH * (1.0 - 1.0 / BURST_FACTOR) / self.request_rate
            gaps = gaps + np.where(
                boundary, rng.exponential(mean_idle, size=n_requests), 0.0
            )
        else:  # diurnal
            # Inhomogeneous Poisson process: each gap is drawn at the
            # instantaneous rate of a sinusoid over the nominal stream span
            # (DIURNAL_CYCLES full cycles), floored away from zero.
            span = n_requests / self.request_rate
            gaps = np.empty(n_requests)
            now = 0.0
            for i in range(n_requests):
                phase = 2.0 * np.pi * DIURNAL_CYCLES * now / span
                rate = self.request_rate * (1.0 + DIURNAL_AMPLITUDE * np.sin(phase))
                rate = max(rate, 0.05 * self.request_rate)
                gaps[i] = rng.exponential(1.0 / rate)
                now += gaps[i]
        return np.cumsum(gaps)

    # ------------------------------------------------------------------
    def generate(self, n_requests: int) -> list[GenerationRequest]:
        """Sample *n_requests* requests; updates :attr:`stats` as a side effect."""
        if n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        spec = self.dataset
        if spec.max_chunks > self.n_unique_chunks:
            raise ValueError(
                f"n_unique_chunks ({self.n_unique_chunks}) must be >= the "
                f"dataset's max_chunks ({spec.max_chunks})"
            )
        rng = np.random.default_rng(self.seed)
        arrivals = self._arrivals(rng, n_requests)
        popularity = self._popularity()
        store = chunk_store_config(self.cache_chunk_capacity).build()

        requests: list[GenerationRequest] = []
        self.chunk_ids = []
        for i in range(n_requests):
            n_chunks = int(rng.integers(spec.min_chunks, spec.max_chunks + 1))
            chunk_tokens = self._clipped_int(
                rng, spec.chunk_tokens_mean, spec.chunk_tokens_std, 16
            )
            n_suffix = self._clipped_int(
                rng, spec.suffix_tokens_mean, spec.suffix_tokens_std, 4
            )
            n_output = self._clipped_int(
                rng, spec.output_tokens_mean, spec.output_tokens_std, 1
            )
            chunk_ids = [
                int(chunk)
                for chunk in rng.choice(
                    self.n_unique_chunks, size=n_chunks, replace=False, p=popularity
                )
            ]
            self.chunk_ids.append(chunk_ids)
            request = GenerationRequest(
                request_id=i,
                n_chunks=n_chunks,
                chunk_tokens=chunk_tokens,
                n_suffix_tokens=n_suffix,
                n_output_tokens=n_output,
                arrival_time=float(arrivals[i]),
                deadline_s=self.ttft_slo_s,
            )
            requests.append(replay_request(request, chunk_ids, store)[0])

        # The store's bytes count placeholder entries, not KV: left out.
        cache = store.stats.as_dict()
        del cache["bytes_stored"]
        self.stats = WorkloadStats(
            n_requests=n_requests,
            n_chunk_accesses=store.stats.lookups,
            chunk_hit_rate=store.stats.hit_rate,
            mean_cached_chunk_fraction=float(
                np.mean([r.cached_chunk_fraction for r in requests])
            ),
            mean_prefix_cached_fraction=float(
                np.mean([r.prefix_cached_fraction for r in requests])
            ),
            mean_context_tokens=float(
                np.mean([r.n_context_tokens for r in requests])
            ),
            cache=cache,
        )
        return requests
