"""LRU translation caches.

Both the IOMMU's IOTLB and the RNIC-side PCIe Address Translation Cache
(ATC) are capacity-bounded caches over page translations.  Figure 8 of the
paper is entirely a story about these two caches thrashing, so the model
tracks hits, misses, and evictions precisely.

The store is a :class:`collections.OrderedDict`: ``move_to_end`` and
``popitem(last=False)`` are C-implemented and stay O(1) under the heavy
eviction churn of the cyclic Figure 8 access pattern (a plain dict's
``next(iter(...))`` degrades by scanning tombstones).

Batched access rests on LRU stack distance (Mattson et al., "Evaluation
techniques for storage hierarchies", IBM Systems Journal 1970): an access
hits an LRU of capacity C iff fewer than C distinct keys were touched
since the key's previous use.  :func:`lru_hit_mask` computes that mask for
a whole key stream in numpy.  The resident contents join the front of the
stream, oldest first, so the state a stream meets is part of its history.
Most windows need no counting: one shorter than C hits, and one whose
keys are all distinct misses (its distance is its length).  Only windows
that repeat a key go through the general O(n log n) count.

:meth:`TranslationCache.access_batch` is exact: it leaves the hit mask,
the counters, the final keys in LRU order and their values exactly as
the per-key :meth:`~TranslationCache.lookup` / :meth:`~TranslationCache.insert`
loop would, and the tests hold that loop as its oracle.  The fleet's
``SharedAtc.access_many`` keeps the per-key loop: its calls are a few
hundred pages against a shared resident set of up to 10k keys with
per-container invalidations in between, so a batch would re-sort the
resident set on every call.
"""

import collections
import itertools
import numbers

import numpy as np

_ABSENT = object()


def _previous_use(ids):
    """``prev[i]``: the last position before ``i`` holding ``ids[i]``, or -1.

    Also returns the stable argsort and, per sorted slot, whether it starts
    a run of equal ids; :meth:`TranslationCache.access_batch` reuses both.
    """
    order = np.argsort(ids, kind="stable")
    ordered = ids[order]
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    prev = np.full(len(ids), -1, dtype=np.int64)
    repeat = np.flatnonzero(~first)
    prev[order[repeat]] = order[repeat - 1]
    return prev, order, first


def _window_has_repeat(prev, starts, ends):
    """Whether any ``prev[j] >= starts`` for ``j`` in ``[starts, ends]``.

    A sparse-table range maximum built one level at a time, so only one
    level (O(n)) is alive at once; each query reads the level of its
    window's length.
    """
    lengths = ends - starts + 1
    repeat = np.zeros(len(starts), dtype=bool)
    table = prev
    level = 0
    while len(table) and (lengths >> level).any():
        if level:
            half = 1 << (level - 1)
            table = np.maximum(table[:-half], table[half:])
        sel = np.flatnonzero((lengths >> level) == 1)
        if sel.size:
            lo = starts[sel]
            peak = np.maximum(table[lo], table[ends[sel] - (1 << level) + 1])
            repeat[sel] = peak >= lo
        level += 1
    return repeat


def _count_first_uses(prev, starts, ends):
    """``#{j in [starts, ends] : prev[j] < starts}`` per query.

    That is the number of distinct keys in the window.  A merge-sort tree
    built one level at a time: level k holds ``prev`` sorted within blocks
    of 2**k positions, packed as ``block * span + prev + 1`` so one global
    ``searchsorted`` counts inside every block at once.  Each query walks
    the bottom-up segment-tree cover of its window.
    """
    span = len(prev) + 1
    level = np.arange(len(prev), dtype=np.int64) * span + (prev + 1)
    counts = np.zeros(len(starts), dtype=np.int64)
    lo = starts.copy()
    hi = ends + 1
    bound = starts + 1
    shift = 0
    while True:
        live = lo < hi
        if not live.any():
            return counts
        for side in (0, 1):
            take = np.flatnonzero(live & (((hi if side else lo) & 1) == 1))
            if side:
                hi[take] -= 1
                block = hi[take]
            else:
                block = lo[take]
                lo[take] += 1
            counts[take] += (np.searchsorted(level, block * span + bound[take])
                             - (block << shift))
        lo >>= 1
        hi >>= 1
        shift += 1
        level = np.sort(((level // span) >> 1) * span + level % span,
                        kind="stable")


def _hits(prev, resident_count, capacity):
    """Hit mask of the accesses after ``resident_count``, given ``prev``."""
    before = prev[resident_count:]
    # Accesses strictly between each use and the previous one.
    gap = np.arange(resident_count - 1, len(prev) - 1, dtype=np.int64) - before
    reused = before >= 0
    hit = reused & (gap < capacity)
    # Windows of at least C accesses: distinct keys only means a miss.
    wide = np.flatnonzero(reused & (gap >= capacity))
    del gap, reused
    starts = before[wide] + 1
    ends = wide + (resident_count - 1)
    repeat = _window_has_repeat(prev, starts, ends)
    wide, starts, ends = wide[repeat], starts[repeat], ends[repeat]
    if wide.size:
        hit[wide] = _count_first_uses(prev, starts, ends) < capacity
    return hit


def lru_hit_mask(keys, capacity, resident=()):
    """Which of ``keys`` hit an LRU of ``capacity`` holding ``resident``.

    ``keys`` and ``resident`` are integer arrays; ``resident`` lists the
    cache's keys in LRU order, oldest first, and holds at most
    ``capacity`` distinct keys.
    """
    resident = np.asarray(resident, dtype=np.int64)
    ids = np.concatenate([resident, np.asarray(keys, dtype=np.int64)])
    prev, _, _ = _previous_use(ids)
    return _hits(prev, len(resident), int(capacity))


class TranslationCache:
    """A bounded LRU cache mapping page keys to translation results."""

    def __init__(self, capacity, name="cache"):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive: %r" % capacity)
        self.capacity = int(capacity)
        self.name = name
        self._entries = collections.OrderedDict()  # LRU order, oldest first
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self):
        return len(self._entries)

    def __contains__(self, key):
        return key in self._entries

    def lookup(self, key):
        """Return ``(hit, value)``; a hit refreshes recency."""
        value = self._entries.get(key)
        if value is not None or key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True, value
        self.misses += 1
        return False, None

    def peek(self, key):
        """Non-counting, non-refreshing lookup (for assertions/tests)."""
        return self._entries.get(key)

    def insert(self, key, value):
        """Insert a translation, evicting the LRU entry if at capacity."""
        if key in self._entries:
            self._entries.move_to_end(key)
        elif len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = value

    def access_batch(self, keys, fill, tag=None):
        """Look up each of ``keys`` in order, inserting every miss.

        Returns the hit mask and leaves the cache exactly as the per-key
        ``lookup``/``insert`` loop would.  ``keys`` is an integer array; with
        ``tag`` the cache key of ``k`` is ``(tag, k)`` (the IOTLB's
        per-domain keys), and resident keys of any other form still count
        toward every stack distance.

        ``fill(miss, keep)`` is called once, before any state changes, with
        two index arrays into ``keys``: every miss in stream order, and the
        misses whose inserted value is still resident after the batch (in
        the final LRU order).  It returns the values to insert at ``keep``.
        An exception from ``fill`` leaves the cache untouched.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if not len(keys):
            return np.zeros(0, dtype=bool)
        old_keys = list(self._entries)
        resident = len(old_keys)
        old_ids = []
        foreign = []
        for i, key in enumerate(old_keys):
            if tag is not None:
                key = key[1] if type(key) is tuple and len(key) == 2 and key[0] == tag else None
            if type(key) is int or isinstance(key, numbers.Integral):
                old_ids.append(key)
            else:
                old_ids.append(0)
                foreign.append(i)
        ids = np.concatenate([np.array(old_ids, dtype=np.int64), keys])
        if foreign:  # ids that no stream key can take
            native = np.ones(len(ids), dtype=bool)
            native[foreign] = False
            ids[foreign] = ids[native].max() + 1 + np.arange(len(foreign))
        prev, order, first = _previous_use(ids)
        hit = _hits(prev, resident, self.capacity)
        del prev

        # Final contents: the `capacity` most recently used distinct keys,
        # found from the sorted slots of each key's first and last use.
        starts = np.flatnonzero(first)
        ends = np.append(starts[1:], len(ids)) - 1
        final = np.argsort(order[ends], kind="stable")[-self.capacity:]
        origin = order[starts[final]]
        codes = ids[origin].tolist()
        missed = np.zeros(len(ids), dtype=bool)
        missed[resident:] = ~hit
        # Per key, the last position that missed it (-1: none did).
        last_miss = np.maximum.reduceat(np.where(missed[order], order, -1), starts)[final]
        # Free the pass's arrays before `fill`, which may run another
        # cache's pass (the ATC's fill runs the IOTLB's).
        del ids, order, first, starts, ends, missed, final
        refilled = last_miss >= 0
        values = fill(np.flatnonzero(~hit), last_miss[refilled] - resident)

        new_keys = codes if tag is None else list(zip(itertools.repeat(tag), codes))
        new_values = [None] * len(codes)
        for i, value in zip(np.flatnonzero(refilled).tolist(), values):
            new_values[i] = value
        old_values = list(self._entries.values())
        for i in np.flatnonzero(origin < resident).tolist():  # keys from before
            new_keys[i] = old_keys[origin[i]]
            if not refilled[i]:
                new_values[i] = old_values[origin[i]]
        # The cache is rebuilt below; drop what only built it first.
        del old_keys, old_values, values, codes, origin, refilled
        hits = int(hit.sum())
        misses = len(keys) - hits
        self.hits += hits
        self.misses += misses
        self.evictions += max(0, misses - (self.capacity - resident))
        self._entries.clear()
        self._entries.update(zip(new_keys, new_values))
        return hit

    def invalidate(self, key):
        """Drop one entry (e.g. on IOMMU unmap); no-op if absent."""
        if self._entries.pop(key, _ABSENT) is not _ABSENT:
            self.invalidations += 1

    def invalidate_where(self, predicate):
        """Drop all entries whose key satisfies ``predicate``."""
        doomed = [key for key in self._entries if predicate(key)]
        for key in doomed:
            del self._entries[key]
        self.invalidations += len(doomed)
        return len(doomed)

    def clear(self):
        self.invalidations += len(self._entries)
        self._entries.clear()

    @property
    def accesses(self):
        return self.hits + self.misses

    @property
    def hit_rate(self):
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self):
        return self.misses / self.accesses if self.accesses else 0.0

    def snapshot(self):
        """Public counter snapshot (what the metrics registry exports)."""
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def reset_counters(self):
        """Zero the statistics without disturbing cache contents.

        Used to measure steady-state miss rates after a warm-up pass.
        """
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __repr__(self):
        return "%s(size=%d/%d, hit_rate=%.3f)" % (
            self.name,
            len(self._entries),
            self.capacity,
            self.hit_rate,
        )
