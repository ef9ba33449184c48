"""The set-associative LRU cache: hit/miss answers, replacement order,
and the checkpoint contract (capture, restore, exact state equality)."""

from hypothesis import given, strategies as st

from repro.arch import CacheConfig
from repro.sim import Cache


def small_cache(sets=4, assoc=2):
    return Cache(CacheConfig(num_sets=sets, assoc=assoc, line_words=32))


def per_set_order(cache):
    """The sparse capture expanded into one tag tuple per set, oldest
    first, with ``()`` for sets never allocated."""
    sets = [()] * cache.config.num_sets
    for index, ways in cache.capture_state()[0]:
        sets[index] = ways
    return tuple(sets)


class TestBasics:
    def test_cold_miss_then_hit(self):
        cache = small_cache()
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.hits == 1 and cache.misses == 1

    def test_same_line_shares_tag(self):
        cache = small_cache()
        cache.access(0)
        assert cache.access(31)      # same 32-word line
        assert not cache.access(32)  # next line

    def test_conflict_eviction(self):
        cache = small_cache(sets=4, assoc=2)
        # Three lines mapping to set 0: lines 0, 4, 8.
        line_words = 32
        cache.access(0 * 4 * line_words)
        cache.access(1 * 4 * line_words * 4 // 4)  # line 4 -> set 0
        a, b, c = 0, 4 * line_words, 8 * line_words
        cache.invalidate()
        cache.hits = cache.misses = 0
        cache.access(a)
        cache.access(b)
        cache.access(c)          # evicts a (LRU)
        assert not cache.access(a)

    def test_lru_order_updated_on_hit(self):
        cache = small_cache(sets=1, assoc=2)
        a, b, c = 0, 32, 64
        cache.access(a)
        cache.access(b)
        cache.access(a)          # refresh a
        cache.access(c)          # evicts b, not a
        assert cache.access(a)
        assert not cache.access(b)

    def test_store_no_allocate(self):
        cache = small_cache()
        cache.access(0, is_store=True)
        assert not cache.access(0)   # store missed without allocating

    def test_store_hit_counts(self):
        cache = small_cache()
        cache.access(0)
        assert cache.access(0, is_store=True)

    def test_invalidate(self):
        cache = small_cache()
        cache.access(0)
        cache.invalidate()
        assert not cache.access(0)

    def test_miss_rate(self):
        cache = small_cache()
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == 0.5


class TestProperties:
    @given(st.lists(st.integers(0, 8 * 32 - 1), min_size=1, max_size=60))
    def test_working_set_within_one_set_assoc_always_rehits(self, addrs):
        """Accessing at most `assoc` distinct lines of one set never
        evicts: a second pass over the same addresses all hits."""
        cache = small_cache(sets=1, assoc=8)
        distinct_lines = {a // 32 for a in addrs}
        if len(distinct_lines) > 8:
            return
        for a in addrs:
            cache.access(a)
        before_hits = cache.hits
        for a in addrs:
            assert cache.access(a)
        assert cache.hits == before_hits + len(addrs)

    @given(st.lists(st.integers(0, 4096), min_size=1, max_size=100))
    def test_counters_consistent(self, addrs):
        cache = small_cache(sets=8, assoc=4)
        for a in addrs:
            cache.access(a)
        assert cache.hits + cache.misses == len(addrs)
        assert cache.accesses == len(addrs)


class TestReplacementOrderPinned:
    """Pin the dict-based LRU bookkeeping to the documented list
    semantics (oldest-first capture order, hit = move-to-back, load
    miss = evict slot 0) so the O(assoc) ``list.remove`` fix cannot
    silently change replacement decisions."""

    def test_capture_order_is_lru_first(self):
        cache = small_cache(sets=1, assoc=3)
        for line in (0, 1, 2):
            cache.access(line * 32)
        assert per_set_order(cache) == ((0, 1, 2),)
        cache.access(0)                       # refresh line 0 -> MRU
        assert per_set_order(cache) == ((1, 2, 0),)
        cache.access(3 * 32)                  # evicts line 1 (slot 0)
        assert per_set_order(cache) == ((2, 0, 3),)
        cache.access(64, is_store=True)       # store hit refreshes too
        assert per_set_order(cache) == ((0, 3, 2),)
        cache.access(4 * 32, is_store=True)   # store miss: no allocate
        assert per_set_order(cache) == ((0, 3, 2),)

    @given(st.lists(st.tuples(st.integers(0, 1024), st.booleans()),
                    min_size=1, max_size=200))
    def test_reference_replacement_semantics(self, ops):
        """Replay against a straight-line list model of the original
        implementation: identical hit results and identical final
        replacement order."""
        cache = small_cache(sets=2, assoc=4)
        model = [[] for _ in range(2)]
        for addr, is_store in ops:
            line = addr // 32
            ways = model[line % 2]
            if line in ways:
                expect = True
                ways.remove(line)
                ways.append(line)
            else:
                expect = False
                if not is_store:
                    if len(ways) >= 4:
                        ways.pop(0)
                    ways.append(line)
            assert cache.access(addr, is_store=is_store) == expect
        assert per_set_order(cache) == tuple(tuple(w) for w in model)


class TestCheckpointState:
    """The checkpoint contract: ``capture_state`` keeps the full LRU
    order and the counters, ``restore_state`` rebuilds it exactly, and
    ``state_equals`` tells apart states that only the order separates."""

    @given(st.lists(st.tuples(st.integers(0, 1024), st.booleans()),
                    min_size=1, max_size=200))
    def test_state_round_trip(self, ops):
        """A fresh cache restored from a capture equals it exactly and
        answers the next access the same way as the original."""
        cache = small_cache(sets=2, assoc=4)
        for addr, is_store in ops:
            cache.access(addr, is_store=is_store)
        state = cache.capture_state()
        restored = small_cache(sets=2, assoc=4)
        restored.restore_state(state)
        assert restored.state_equals(state)
        assert restored.capture_state() == state
        probe, probe_store = ops[0]
        assert (restored.access(probe, is_store=probe_store)
                == cache.access(probe, is_store=probe_store))
        assert restored.capture_state() == cache.capture_state()
        # Equal counters do not make equal states: two lines no op
        # touched, loaded into set 0 in opposite orders, leave the same
        # hit/miss counts but a different LRU order in that set.
        for line in (100, 102):
            cache.access(line * 32)
        for line in (102, 100):
            restored.access(line * 32)
        assert (restored.hits, restored.misses) == (cache.hits, cache.misses)
        assert not restored.state_equals(cache.capture_state())

    def test_capture_holds_only_allocated_sets(self):
        """Sets no load allocated are absent; the rest come in index
        order, and store misses allocate nothing."""
        cache = small_cache(sets=4, assoc=2)
        cache.access(3 * 32)
        cache.access(1 * 32)
        cache.access(2 * 32, is_store=True)
        assert cache.capture_state() == (((1, (1,)), (3, (3,))), 0, 3)

    def test_restore_holds_exactly_the_captured_sets(self):
        source = small_cache(sets=4, assoc=2)
        source.access(1 * 32)
        state = source.capture_state()
        target = small_cache(sets=4, assoc=2)
        target.access(2 * 32)                # a set the capture lacks
        target.restore_state(state)
        assert target.capture_state() == state
        assert target.state_equals(state)
        assert not target.access(2 * 32)     # its line went with it
        assert target.access(1 * 32)

    def test_capture_after_invalidate_equals_fresh(self):
        cache = small_cache(sets=4, assoc=2)
        for line in range(6):
            cache.access(line * 32)
        cache.invalidate()
        fresh = small_cache(sets=4, assoc=2)
        # The counters are access history, which invalidation keeps.
        assert cache.capture_state()[0] == fresh.capture_state()[0] == ()
        assert fresh.state_equals(((), 0, 0))
