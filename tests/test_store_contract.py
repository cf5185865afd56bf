"""Randomized contract of the chunk stores the sweep replays through.

Random lookup / put-on-miss / remove sequences run against a whole-chunk
``KVCacheStore`` (LRU and FIFO) and a two-tier ``TieredKVStore``, each
checked after every step against a reference model of entry counts.
"""

from collections import OrderedDict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kvstore.config import StoreConfig
from repro.kvstore.store import EvictionPolicy
from repro.model.tensors import KVCache, LayerKV

ENTRY = KVCache([LayerKV(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)))])
ENTRY_BYTES = StoreConfig().precision.cache_nbytes(ENTRY)


class Tier:
    """Entry-count LRU (or FIFO) reference: eviction order, front first."""

    def __init__(self, capacity: int, lru: bool = True) -> None:
        self.capacity, self.lru, self.keys = capacity, lru, OrderedDict()

    def lookup(self, key: int) -> bool:
        if key in self.keys and self.lru:
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


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    capacity=st.integers(1, 5),
    policy=st.sampled_from([EvictionPolicy.LRU, EvictionPolicy.FIFO]),
    ops=_ops,
)
def test_chunk_store_matches_an_entry_count_model(capacity, policy, ops):
    store = StoreConfig(
        backend="chunk", capacity_bytes=capacity * ENTRY_BYTES, policy=policy
    ).build()
    model = Tier(capacity, lru=policy is EvictionPolicy.LRU)
    for op, key in ops:
        if op == "lookup":
            hit = model.lookup(key)
            found = store.lookup(key)
            # A single-tier store names no serving tier, hit or miss.
            assert found.hit == hit and found.tier_index is None
            if not hit:
                store.put(key, ENTRY)
                model.put(key)
        else:
            held = key in model.keys
            model.keys.pop(key, None)
            assert store.remove(key) == held
        assert store.keys() == list(model.keys)
        assert store.bytes_stored == store.n_entries * ENTRY_BYTES <= store.capacity_bytes


@settings(derandomize=True, deadline=None, max_examples=60)
@given(ram=st.integers(1, 4), slow=st.integers(1, 6), ops=_ops)
def test_tiered_store_matches_the_inclusive_model(ram, slow, ops):
    store = StoreConfig(
        backend="tiered", tier_capacity_bytes=(ram * ENTRY_BYTES, slow * ENTRY_BYTES)
    ).build()
    model = Inclusive(ram, slow)
    for op, key in ops:
        if op == "lookup":
            tier = model.lookup(key)
            found = store.lookup(key)
            assert found.hit == (tier is not None)
            assert found.tier_index == tier
            if tier is None:
                store.put(key, ENTRY)
                model.put(key)
        else:
            held = [key in tier.keys for tier in model.tiers]
            assert store.remove(key) == any(held)
            for tier in model.tiers:
                tier.keys.pop(key, None)
        for real, tier in zip(store.tiers, model.tiers):
            assert real.keys() == list(tier.keys)
            assert real.bytes_stored == real.n_entries * ENTRY_BYTES <= real.capacity_bytes
        assert store.bytes_stored == store.n_entries * ENTRY_BYTES
