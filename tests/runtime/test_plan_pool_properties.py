"""Hypothesis property tests for the plan pool's accounting invariants.

Model-based randomized checks of the invariants every consumer relies on:

* **exact byte accounting** — ``current_bytes`` equals the sum of the
  stored entries' ``nbytes`` after *any* interleaving of inserts, warm
  hits, budget changes and the evictions they trigger;
* **LRU discipline** — the pool's key order always matches a reference
  model (an ``OrderedDict`` with move-to-end on hit), so the entry evicted
  under pressure is provably the least recently used one;
* **budget safety** — the running total never exceeds the budget, oversize
  values are handed out but never stored, and a zero budget stores nothing.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.plan_pool import PlanPool


class _Sized:
    def __init__(self, nbytes: int) -> None:
        self.nbytes = nbytes


#: One pool operation: ("get", key, nbytes) or ("budget", max_bytes).
_OPS = st.one_of(
    st.tuples(st.just("get"), st.integers(0, 7), st.integers(0, 60)),
    st.tuples(st.just("budget"), st.integers(0, 150)),
)


def _apply_to_model(model: "OrderedDict[tuple, int]", op, budget: int) -> int:
    """Reference LRU semantics; returns the (possibly updated) budget."""
    if op[0] == "budget":
        budget = op[1]
    else:
        _, key_id, size = op
        key = ("prop", key_id)
        if key in model:
            model.move_to_end(key)
        elif size <= budget:
            model[key] = size
    while sum(model.values()) > budget:
        model.popitem(last=False)
    return budget


class TestPoolInvariants:
    @given(ops=st.lists(_OPS, max_size=60), initial_budget=st.integers(0, 150))
    @settings(max_examples=60, deadline=None)
    def test_byte_accounting_and_lru_order_under_random_ops(self, ops, initial_budget):
        pool = PlanPool(max_bytes=initial_budget)
        model: "OrderedDict[tuple, int]" = OrderedDict()
        budget = initial_budget
        for op in ops:
            if op[0] == "budget":
                pool.set_max_bytes(op[1])
            else:
                _, key_id, size = op
                value = pool.get(("prop", key_id), lambda size=size: _Sized(size))
                assert value.nbytes >= 0  # oversize values are still returned
            budget = _apply_to_model(model, op, budget)

            # invariant 1: bytes_used == sum(entry.nbytes), exactly
            assert pool.current_bytes == sum(model.values())
            assert pool.current_bytes <= pool.max_bytes
            # invariant 2: LRU order matches the reference model
            assert pool.keys() == tuple(model)
            # invariant 3: the stats gauges agree with the contents
            stats = pool.stats
            assert stats.entries == len(model)
            assert stats.current_bytes == pool.current_bytes
            assert stats.peak_bytes >= stats.current_bytes
            pool.validate_accounting()

    @given(ops=st.lists(_OPS, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_counter_balance(self, ops):
        """hits + misses == lookups, and every miss either stored, was
        rejected oversize, or was later evicted."""
        pool = PlanPool(max_bytes=100)
        lookups = 0
        for op in ops:
            if op[0] == "budget":
                pool.set_max_bytes(op[1])
            else:
                pool.get(("prop", op[1]), lambda op=op: _Sized(op[2]))
                lookups += 1
            stats = pool.stats
            assert stats.hits + stats.misses == lookups
            assert (
                stats.misses
                == stats.entries + stats.evictions + stats.oversize_rejections
            )

    @given(sizes=st.lists(st.integers(1, 40), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_zero_budget_never_stores(self, sizes):
        pool = PlanPool(max_bytes=0)
        for index, size in enumerate(sizes):
            value = pool.get(("prop", index), lambda size=size: _Sized(size))
            assert value.nbytes == size
        assert pool.stats.entries == 0
        assert pool.current_bytes == 0
        assert pool.stats.misses == len(sizes)
