"""Randomized contract of the chunk stores the sweep and the engine use.

Random lookup / put-on-miss / remove sequences run against a whole-chunk
LRU ``KVCacheStore`` and a two-tier ``TieredKVStore``, each checked after
every step against a reference model of entry counts.  The entry is either
the sweep's one-row placeholder packed at float16 or a real 32-token chunk
cache of the Mistral-7B proxy (perfbench's chunk) packed at every precision
preset, so byte accounting — the sum of the held blobs' lengths — is checked
at the wide and the narrow widths.
"""

from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.kvstore.config import StoreConfig
from repro.kvstore.precision import PRECISION_PRESETS
from repro.kvstore.serialization import KVBlob, serialize_kv
from repro.model.config import get_config
from repro.model.tensors import KVCache, LayerKV
from repro.model.transformer import TransformerModel

PLACEHOLDER = KVCache(
    [LayerKV(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))], token_ids=[0], positions=[0]
)
PROXY_CHUNK = TransformerModel(get_config("proxy-mistral-7b"), seed=0).chunk_prefill(
    np.arange(4, 36, dtype=np.int64)
)

#: Entries packed as the engine packs them, at a store precision.
ENTRIES = {
    "placeholder-float16": KVBlob(serialize_kv(PLACEHOLDER)),
    **{
        f"proxy-{kv_dtype}": KVBlob(serialize_kv(PROXY_CHUNK, kv_dtype))
        for kv_dtype in PRECISION_PRESETS
    },
}


def _held_bytes(tier) -> int:
    """Sum of the lengths of the blobs a single-tier store holds."""
    return sum(len(tier.peek(key).data) for key in tier.keys())


class Tier:
    """Entry-count LRU reference: eviction order, front first."""

    def __init__(self, capacity: int) -> None:
        self.capacity, self.keys = capacity, OrderedDict()

    def lookup(self, key: int) -> bool:
        if key in self.keys:
            self.keys.move_to_end(key)
        return key in self.keys

    def put(self, key: int) -> list[int]:
        victims = []
        while len(self.keys) >= self.capacity:
            victims.append(self.keys.popitem(last=False)[0])
        self.keys[key] = None
        return victims


class Inclusive:
    """RAM over slow: a slow hit is copied up and stays below; a RAM victim
    demotes unless the slow tier holds it; a slow-tier victim drops."""

    def __init__(self, ram: int, slow: int) -> None:
        self.tiers = [Tier(ram), Tier(slow)]

    def lookup(self, key: int) -> int | None:
        for index, tier in enumerate(self.tiers):
            if tier.lookup(key):
                if index:
                    self.put(key)
                return index
        return None

    def put(self, key: int) -> None:
        for victim in self.tiers[0].put(key):
            if victim not in self.tiers[1].keys:
                self.tiers[1].put(victim)


_ops = st.lists(
    st.tuples(st.sampled_from(["lookup", "lookup", "remove"]), st.integers(0, 7)),
    min_size=20,
    max_size=80,
)

#: No shrink phase: a failing op list is reported as drawn within seconds,
#: where shrinking 20–80-step lists over real chunk caches takes minutes.
_contract = settings(
    derandomize=True,
    deadline=None,
    max_examples=60,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)


@pytest.mark.parametrize("entry_name", ENTRIES)
@_contract
@given(capacity=st.integers(1, 5), ops=_ops)
def test_chunk_store_matches_an_entry_count_model(entry_name, capacity, ops):
    entry = ENTRIES[entry_name]
    entry_bytes = len(entry.data)
    store = StoreConfig(backend="chunk", capacity_bytes=capacity * entry_bytes).build()
    model = Tier(capacity)
    for op, key in ops:
        if op == "lookup":
            hit = model.lookup(key)
            found = store.lookup(key)
            # A single-tier store names no serving tier, hit or miss.
            assert found.hit == hit and found.tier_index is None
            if not hit:
                store.put(key, entry)
                model.put(key)
        else:
            held = key in model.keys
            model.keys.pop(key, None)
            assert store.remove(key) == held
        assert store.keys() == list(model.keys)
        assert store.bytes_stored == _held_bytes(store)
        assert store.bytes_stored == store.n_entries * entry_bytes <= store.capacity_bytes


@pytest.mark.parametrize("entry_name", ENTRIES)
@_contract
@given(ram=st.integers(1, 4), slow=st.integers(1, 6), ops=_ops)
def test_tiered_store_matches_the_inclusive_model(entry_name, ram, slow, ops):
    entry = ENTRIES[entry_name]
    entry_bytes = len(entry.data)
    store = StoreConfig(
        backend="tiered", tier_capacity_bytes=(ram * entry_bytes, slow * entry_bytes)
    ).build()
    model = Inclusive(ram, slow)
    for op, key in ops:
        if op == "lookup":
            tier = model.lookup(key)
            found = store.lookup(key)
            assert found.hit == (tier is not None)
            assert found.tier_index == tier
            if tier is None:
                store.put(key, entry)
                model.put(key)
        else:
            held = [key in tier.keys for tier in model.tiers]
            assert store.remove(key) == any(held)
            for tier in model.tiers:
                tier.keys.pop(key, None)
        for real, tier in zip(store.tiers, model.tiers):
            assert real.keys() == list(tier.keys)
            assert real.bytes_stored == _held_bytes(real)
            assert real.bytes_stored == real.n_entries * entry_bytes <= real.capacity_bytes
        assert store.bytes_stored == sum(_held_bytes(real) for real in store.tiers)

