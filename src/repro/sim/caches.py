"""Tag-only set-associative caches with LRU replacement.

Timing-only: data lives in the functional memory arrays; the caches just
decide hit/miss for latency.  L1 is per-SM (write-through, no
write-allocate, as on Fermi for global stores); L2 is shared.

One model serves every path: :class:`Cache` keeps one Python dict per
set whose insertion order is the LRU order (oldest first), so a hit is a
move-to-back (two O(1) dict ops).  The SM asks it about one line at a
time, and checkpoints record, restore and compare its state through
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
        # Each set is an insertion-ordered dict of line tags: oldest
        # (LRU) first, most-recently-used last.  Values are unused.
        self._sets: list[dict[int, None]] = [{} for _
                                             in range(config.num_sets)]
        self.hits = 0
        self.misses = 0

    def _locate(self, word_addr: int) -> tuple[dict[int, None], int]:
        line = word_addr // self.config.line_words
        return self._sets[line % self.config.num_sets], line

    def access(self, word_addr: int, is_store: bool = False) -> bool:
        """Access one line; returns True on hit.  Loads allocate on miss,
        stores are write-through no-allocate."""
        ways, line = self._locate(word_addr)
        if line in ways:
            self.hits += 1
            del ways[line]       # move-to-back: re-insert as MRU
            ways[line] = None
            return True
        self.misses += 1
        if not is_store:
            if len(ways) >= self.config.assoc:
                del ways[next(iter(ways))]   # evict LRU (oldest entry)
            ways[line] = None
        return False

    def invalidate(self) -> None:
        for ways in self._sets:
            ways.clear()

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def capture_state(self) -> tuple:
        """Full replacement state: per-set tag tuples (LRU order is the
        replacement state, so order is preserved — oldest first) plus
        the counters."""
        return (tuple(tuple(ways) for ways in self._sets),
                self.hits, self.misses)

    def restore_state(self, state: tuple) -> None:
        sets, hits, misses = state
        self._sets = [dict.fromkeys(ways) for ways in sets]
        self.hits = hits
        self.misses = misses

    def state_equals(self, state: tuple) -> bool:
        """Exact equality against a :meth:`capture_state` snapshot,
        without capturing: short-circuits on the first differing set."""
        sets, hits, misses = state
        if self.hits != hits or self.misses != misses:
            return False
        if len(self._sets) != len(sets):
            return False
        return all(tuple(ways) == ref
                   for ways, ref in zip(self._sets, sets))

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0
