"""Tag-only set-associative caches with LRU replacement.

Timing-only: data lives in the functional memory arrays; the caches just
decide hit/miss for latency.  L1 is per-SM (write-through, no
write-allocate, as on Fermi for global stores); L2 is shared.

One model serves every path: :class:`Cache` keeps one Python dict per
allocated set whose insertion order is the LRU order (oldest first), so
a hit is a move-to-back (two O(1) dict ops).  Sets no load has touched
are not materialized: a GTX480 GPU has 832 sets, and a tiny-scale launch
touches a few of them.  The SM asks the cache about one line at a time,
and checkpoints record, restore and compare the allocated sets through
:meth:`Cache.capture_state`, :meth:`Cache.restore_state` and
:meth:`Cache.state_equals`.
"""

from __future__ import annotations

from ..arch import CacheConfig


class Cache:
    """A set-associative LRU cache over word addresses."""

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        # Allocated sets only: set index -> insertion-ordered dict of
        # line tags, oldest (LRU) first, most-recently-used last (values
        # are unused).  A set enters on its first load miss and is never
        # empty afterwards: a line leaves only to make room for another.
        self._sets: dict[int, dict[int, None]] = {}
        self.hits = 0
        self.misses = 0

    def access(self, word_addr: int, is_store: bool = False) -> bool:
        """Access one line; returns True on hit.  Loads allocate on miss,
        stores are write-through no-allocate."""
        config = self.config
        line = word_addr // config.line_words
        index = line % config.num_sets
        ways = self._sets.get(index)
        if ways is not None and line in ways:
            self.hits += 1
            del ways[line]       # move-to-back: re-insert as MRU
            ways[line] = None
            return True
        self.misses += 1
        if not is_store:
            if ways is None:
                self._sets[index] = {line: None}
            else:
                if len(ways) >= config.assoc:
                    del ways[next(iter(ways))]   # evict LRU (oldest entry)
                ways[line] = None
        return False

    def invalidate(self) -> None:
        self._sets.clear()

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def capture_state(self) -> tuple:
        """Full replacement state: the allocated sets as ``(set index,
        tags)`` pairs in index order, each set's tags oldest first (LRU
        order is the replacement state), plus the counters."""
        return (tuple((index, tuple(ways))
                      for index, ways in sorted(self._sets.items())),
                self.hits, self.misses)

    def restore_state(self, state: tuple) -> None:
        sets, hits, misses = state
        self._sets = {index: dict.fromkeys(ways) for index, ways in sets}
        self.hits = hits
        self.misses = misses

    def state_equals(self, state: tuple) -> bool:
        """Exact equality against a :meth:`capture_state` snapshot,
        without capturing: short-circuits on the first differing set.
        Both sides hold only non-empty sets, so equal counts plus a
        match for every captured set make the states equal."""
        sets, hits, misses = state
        if self.hits != hits or self.misses != misses:
            return False
        live = self._sets
        if len(live) != len(sets):
            return False
        for index, ref in sets:
            ways = live.get(index)
            if ways is None or tuple(ways) != ref:
                return False
        return True

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0
