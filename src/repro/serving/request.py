"""Requests and their scheduled lifecycle timings."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class GenerationRequest:
    """One RAG generation request, described by its token budget.

    Attributes
    ----------
    request_id:
        Unique identifier.
    n_chunks / chunk_tokens:
        The retrieved context layout (``n_chunks`` chunks of ``chunk_tokens``
        tokens each).
    n_suffix_tokens:
        Tokens of the user question appended after the chunks.
    n_output_tokens:
        Tokens to decode for the answer.
    arrival_time:
        Arrival timestamp in seconds (set by the load generator).
    cached_chunk_fraction:
        Fraction of the context chunks whose KV cache is already stored
        (cache hits).  Misses must be prefilled from scratch.
    prefix_cached_fraction:
        Fraction of the context usable by *prefix* caching (only the leading
        chunk(s) shared with previous requests).
    slow_tier_fraction:
        Of the *cached* context, the fraction resident in the slow tier of a
        tiered KV store (and read at that tier's rate) rather than the fast
        (RAM) tier.  ``None`` means the store is untiered and all cached KV
        reads are priced at the engine's single storage device, as before.
    deadline_s:
        TTFT service-level objective, in seconds *relative to arrival*: the
        request wants its first token within ``arrival_time + deadline_s``.
        ``None`` means best-effort (no SLO; never rejected by admission
        control and never the trigger of a preemption).
    """

    request_id: int
    n_chunks: int = 6
    chunk_tokens: int = 512
    n_suffix_tokens: int = 32
    n_output_tokens: int = 32
    arrival_time: float = 0.0
    cached_chunk_fraction: float = 1.0
    prefix_cached_fraction: float = 0.17
    slow_tier_fraction: float | None = None
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.n_chunks < 1 or self.chunk_tokens < 1:
            raise ValueError("requests need at least one chunk of at least one token")
        if not 0.0 <= self.cached_chunk_fraction <= 1.0:
            raise ValueError("cached_chunk_fraction must be in [0, 1]")
        if not 0.0 <= self.prefix_cached_fraction <= 1.0:
            raise ValueError("prefix_cached_fraction must be in [0, 1]")
        if self.slow_tier_fraction is not None and not 0.0 <= self.slow_tier_fraction <= 1.0:
            raise ValueError("slow_tier_fraction must be in [0, 1] when set")
        if self.deadline_s is not None and self.deadline_s <= 0.0:
            raise ValueError("deadline_s must be positive when set")

    @property
    def n_context_tokens(self) -> int:
        return self.n_chunks * self.chunk_tokens

    @property
    def n_total_tokens(self) -> int:
        return self.n_context_tokens + self.n_suffix_tokens


@dataclass
class RequestTiming:
    """Lifecycle timestamps of one request, as the scheduler placed it.

    ``rejected`` marks requests the admission controller turned away — they
    occupy no server time and their timestamps all equal the rejection
    instant.  ``n_preemptions`` counts how often the request's decode was
    paused to make room for an at-risk prefill.  ``deadline_s`` echoes the
    request's TTFT SLO so :attr:`met_slo` (and goodput aggregation) needs no
    join back to the request list.
    """

    request_id: int
    arrival_time: float
    start_time: float = 0.0
    first_token_time: float = 0.0
    completion_time: float = 0.0
    gpu_time: float = field(default=0.0)
    rejected: bool = False
    n_preemptions: int = 0
    deadline_s: float | None = None

    @property
    def queueing_delay(self) -> float:
        return self.start_time - self.arrival_time

    @property
    def ttft(self) -> float:
        """Time to first token, measured from arrival (includes queueing)."""
        return self.first_token_time - self.arrival_time

    @property
    def latency(self) -> float:
        return self.completion_time - self.arrival_time

    @property
    def met_slo(self) -> bool:
        """Served, and the first token arrived within the deadline (if any).

        Rejected requests never meet the SLO; best-effort requests (no
        deadline) count as meeting it whenever they were served.
        """
        if self.rejected:
            return False
        return self.deadline_s is None or self.ttft <= self.deadline_s
