"""Word-level tokenizer with deterministic ids.

The tokenizer lower-cases text, splits on whitespace and punctuation, and maps
every word to a stable id through :class:`~repro.tokenizer.vocab.Vocabulary`.
It intentionally mirrors the small API surface the rest of the system needs
from a HuggingFace tokenizer: ``encode``, ``decode``, ``tokenize`` and the
special-token ids.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.tokenizer.vocab import SpecialTokens, Vocabulary

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+|[^\sa-z0-9]")


@dataclass
class Tokenizer:
    """Deterministic word-level tokenizer.

    Parameters
    ----------
    vocab_size:
        Total vocabulary size, including the reserved special tokens.  The
        model's embedding table must be at least this large.
    lowercase:
        Whether to lower-case text before splitting (default ``True``).
    """

    vocab_size: int = 32_768
    lowercase: bool = True
    vocab: Vocabulary = field(init=False)

    def __post_init__(self) -> None:
        self.vocab = Vocabulary(size=self.vocab_size)

    @property
    def special(self) -> SpecialTokens:
        return self.vocab.special

    @property
    def bos_id(self) -> int:
        return self.special.bos

    @property
    def eos_id(self) -> int:
        return self.special.eos

    def tokenize(self, text: str) -> list[str]:
        """Split *text* into word/punctuation pieces."""
        if self.lowercase:
            text = text.lower()
        return _TOKEN_PATTERN.findall(text)

    def encode(self, text: str, add_bos: bool = False, add_eos: bool = False) -> list[int]:
        """Encode *text* into a list of token ids."""
        ids = [self.vocab.word_to_id(piece) for piece in self.tokenize(text)]
        if add_bos:
            ids.insert(0, self.bos_id)
        if add_eos:
            ids.append(self.eos_id)
        return ids

    def decode(self, ids: list[int], skip_special: bool = True) -> str:
        """Decode token ids back into a whitespace-joined string."""
        words = []
        special_ids = set(self.special.as_dict().values())
        for token_id in ids:
            if skip_special and token_id in special_ids:
                continue
            words.append(self.vocab.id_to_word(int(token_id)))
        return " ".join(words)

    def __len__(self) -> int:
        return self.vocab_size
