"""Noisy-answer cache: repeated identical queries cost zero extra epsilon.

Differential privacy is closed under post-processing, so *re-serving a noisy
answer that was already released* consumes no additional privacy budget —
only computing a fresh noisy answer does.  The cache therefore keys on the
canonical ``(dataset, query)`` form (:meth:`repro.service.queries.Query.canonical_key`)
and stores the exact answer object of the first release; every later
identical query is answered from memory at zero marginal epsilon, which is
simultaneously the correct DP move and the service's main throughput lever
(a hit is a dict lookup; a miss is a full estimator run).

Entries are evicted least-recently-used once ``maxsize`` is reached.  Note
that eviction is a *throughput* decision, not a privacy one: re-computing an
evicted query spends fresh budget, so the cache should be sized to hold the
service's working set.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.exceptions import DomainError

__all__ = ["AnswerCache", "CacheStats"]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters and current occupancy."""

    hits: int
    misses: int
    size: int
    maxsize: Optional[int]
    evictions: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "maxsize": self.maxsize,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class AnswerCache:
    """Thread-safe LRU cache of released answers, keyed by canonical query.

    ``maxsize=None`` means unbounded; ``maxsize=0`` disables caching (every
    ``get`` is a miss, ``put`` is a no-op) — useful for benchmarking the
    uncached path.
    """

    def __init__(self, maxsize: Optional[int] = None):
        if maxsize is not None and maxsize < 0:
            raise DomainError(f"maxsize must be None or >= 0, got {maxsize}")
        self._maxsize = maxsize
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: str) -> Optional[Any]:
        """The cached answer for ``key``, or ``None`` (counts a hit/miss)."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            self._misses += 1
            return None

    def peek(self, key: str) -> Optional[Any]:
        """Probe for ``key``: count a hit when present, count *nothing* on absence.

        The lookup of the service's admission decision: a present answer is
        a real, served hit (counted and LRU-refreshed, atomically); an
        absent one is not a miss yet — the caller counts it via
        :meth:`record_miss` once it knows the request is answered without
        a further lookup, keeping ``hits + misses`` equal to the number of
        answered requests.
        """
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
            return None

    def record_miss(self) -> None:
        """Count the miss of a :meth:`peek` that came up empty."""
        with self._lock:
            self._misses += 1

    def put(self, key: str, answer: Any) -> None:
        """Store ``answer`` under ``key``, evicting LRU entries if needed."""
        with self._lock:
            if self._maxsize == 0:
                return
            self._entries[key] = answer
            self._entries.move_to_end(key)
            while self._maxsize is not None and len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1

    def resize(self, maxsize: Optional[int]) -> int:
        """Change ``maxsize`` in place, evicting LRU entries down to the new cap.

        The control-plane primitive behind a live ``cache_size`` config
        change.  ``None`` lifts the bound, ``0`` disables caching (and clears
        it).  Returns how many entries were evicted; counters are preserved —
        resizing is an operational act, not a reset.
        """
        if maxsize is not None and maxsize < 0:
            raise DomainError(f"maxsize must be None or >= 0, got {maxsize}")
        with self._lock:
            self._maxsize = maxsize
            evicted = 0
            while maxsize is not None and len(self._entries) > maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
            return evicted

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                size=len(self._entries),
                maxsize=self._maxsize,
                evictions=self._evictions,
            )
