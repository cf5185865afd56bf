"""Model architecture configuration and presets.

Two kinds of configurations live here:

* *Proxy* configurations (``tiny``, ``small``) are small enough to run the
  actual NumPy forward pass; all quality/deviation experiments use them.
* *Architecture* presets for the models the paper evaluates (Mistral-7B,
  Yi-34B, Llama-70B, plus Llama-7B used in §5's example).  These are used by
  the analytical serving cost model (KV cache sizes, per-layer FLOPs) — their
  forward pass is never executed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Compute dtypes the runnable proxy models support.
COMPUTE_DTYPES = ("float32", "float64")


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyper-parameters of a decoder-only transformer.

    Attributes
    ----------
    name:
        Human-readable model name (used in experiment output rows).
    n_layers / hidden_size / n_heads / n_kv_heads / ffn_size / vocab_size:
        The usual transformer dimensions.  ``n_kv_heads < n_heads`` enables
        grouped-query attention, as in Mistral and Llama-2/3 70B.
    rope_theta:
        Base of the rotary positional embedding.
    dtype_bytes:
        Bytes per stored KV element (2 for fp16, 1 for int8 quantised KV).
    compute_dtype:
        NumPy dtype the runnable forward pass computes in (``"float32"`` by
        default; ``"float64"`` is available for numerical reference runs).
        Stored KV stays fp16 on disk regardless — this only governs the
        in-memory compute path.
    max_position:
        Maximum sequence length supported.
    runnable:
        Whether the NumPy forward pass is intended to be executed for this
        configuration (False for the large architecture presets).
    """

    name: str = "tiny"
    n_layers: int = 4
    hidden_size: int = 64
    n_heads: int = 4
    n_kv_heads: int = 4
    ffn_size: int = 128
    vocab_size: int = 2048
    rope_theta: float = 10_000.0
    dtype_bytes: int = 2
    compute_dtype: str = "float32"
    max_position: int = 8192
    runnable: bool = True

    def __post_init__(self) -> None:
        if self.hidden_size % self.n_heads != 0:
            raise ValueError(
                f"hidden_size {self.hidden_size} must be divisible by "
                f"n_heads {self.n_heads}"
            )
        if self.n_heads % self.n_kv_heads != 0:
            raise ValueError(
                f"n_heads {self.n_heads} must be divisible by "
                f"n_kv_heads {self.n_kv_heads}"
            )
        if self.head_dim % 2 != 0:
            raise ValueError("head_dim must be even for rotary embeddings")
        if self.compute_dtype not in COMPUTE_DTYPES:
            raise ValueError(
                f"compute_dtype must be one of {COMPUTE_DTYPES}, "
                f"got {self.compute_dtype!r}"
            )

    @property
    def np_dtype(self) -> np.dtype:
        """The NumPy dtype of the runnable compute path."""
        return np.dtype(self.compute_dtype)

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.n_heads

    def kv_bytes_per_token_per_layer(self) -> int:
        """Bytes of K plus V stored for one token on one layer."""
        return 2 * self.n_kv_heads * self.head_dim * self.dtype_bytes

    def kv_bytes_per_token(self) -> int:
        """Bytes of KV cache stored per token across all layers."""
        return self.n_layers * self.kv_bytes_per_token_per_layer()

    def kv_bytes(self, n_tokens: int) -> int:
        """Total KV cache bytes for a context of *n_tokens*."""
        return n_tokens * self.kv_bytes_per_token()

    def approx_parameters(self) -> int:
        """Rough parameter count, used only for cost-model scaling."""
        d = self.hidden_size
        per_layer = (
            d * d  # Wq
            + 2 * d * self.n_kv_heads * self.head_dim  # Wk, Wv
            + d * d  # Wo
            + 3 * d * self.ffn_size  # SwiGLU gate/up/down
        )
        return self.n_layers * per_layer + self.vocab_size * d

    def prefill_flops(self, n_tokens: int) -> float:
        """Approximate prefill FLOPs for a context of *n_tokens*.

        Linear layers contribute ``2 * params * tokens`` and attention adds a
        quadratic term ``2 * layers * tokens^2 * hidden`` (scores + weighted
        sum), matching the super-linear growth the paper highlights.
        """
        linear = 2.0 * self.approx_parameters() * n_tokens
        quadratic = 4.0 * self.n_layers * float(n_tokens) ** 2 * self.hidden_size
        return linear + quadratic


def _preset(**kwargs) -> ModelConfig:
    return ModelConfig(**kwargs)


#: Architecture presets.  The large presets mirror the public architecture
#: cards of the evaluated models; ``dtype_bytes=1`` on Yi-34B and Llama-70B
#: reflects the paper's 8-bit quantisation of those models.
MODEL_PRESETS: dict[str, ModelConfig] = {
    "tiny": _preset(
        name="tiny", n_layers=4, hidden_size=64, n_heads=4, n_kv_heads=4,
        ffn_size=128, vocab_size=2048, runnable=True,
    ),
    "small": _preset(
        name="small", n_layers=8, hidden_size=128, n_heads=8, n_kv_heads=4,
        ffn_size=256, vocab_size=8192, runnable=True,
    ),
    "proxy-mistral-7b": _preset(
        name="proxy-mistral-7b", n_layers=8, hidden_size=128, n_heads=8,
        n_kv_heads=4, ffn_size=256, vocab_size=8192, runnable=True,
    ),
    "proxy-yi-34b": _preset(
        name="proxy-yi-34b", n_layers=12, hidden_size=160, n_heads=8,
        n_kv_heads=4, ffn_size=320, vocab_size=8192, runnable=True,
    ),
    "proxy-llama-70b": _preset(
        name="proxy-llama-70b", n_layers=16, hidden_size=192, n_heads=12,
        n_kv_heads=4, ffn_size=384, vocab_size=8192, runnable=True,
    ),
    "llama-7b": _preset(
        name="llama-7b", n_layers=32, hidden_size=4096, n_heads=32,
        n_kv_heads=32, ffn_size=11008, vocab_size=32000, dtype_bytes=2,
        runnable=False,
    ),
    "mistral-7b": _preset(
        name="mistral-7b", n_layers=32, hidden_size=4096, n_heads=32,
        n_kv_heads=8, ffn_size=14336, vocab_size=32000, dtype_bytes=2,
        runnable=False,
    ),
    "yi-34b": _preset(
        name="yi-34b", n_layers=60, hidden_size=7168, n_heads=56,
        n_kv_heads=8, ffn_size=20480, vocab_size=64000, dtype_bytes=1,
        runnable=False,
    ),
    "llama-70b": _preset(
        name="llama-70b", n_layers=80, hidden_size=8192, n_heads=64,
        n_kv_heads=8, ffn_size=28672, vocab_size=32000, dtype_bytes=1,
        runnable=False,
    ),
}

#: Mapping from the paper's evaluated model names to the proxy configuration
#: used for quality/deviation measurements and the architecture configuration
#: used for timing.
PAPER_MODEL_PAIRS: dict[str, tuple[str, str]] = {
    "Mistral-7B": ("proxy-mistral-7b", "mistral-7b"),
    "Yi-34B": ("proxy-yi-34b", "yi-34b"),
    "Llama-70B": ("proxy-llama-70b", "llama-70b"),
}


def get_config(name: str) -> ModelConfig:
    """Return a preset by name, raising ``KeyError`` with a helpful message."""
    try:
        return MODEL_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_PRESETS))
        raise KeyError(f"unknown model preset {name!r}; known presets: {known}") from None
