"""Dataset views: raw data plus lazily-materialised, cached sketches.

The estimator data contract.  A :class:`DatasetView` wraps the array a
dataset was registered with and carries *sketches* — derived representations
(the sorted copy, the sorted absolute values, prefix sums, low-order
moments) that many estimators would otherwise re-derive from scratch on
every cold query.  Estimator specs declare the sketches they exploit via
``EstimatorSpec.needs``; the service registry materialises the union of the
declared needs **once at registration** and every query against the dataset
reuses them.

Compatibility shim
------------------
A view is array-like: ``np.asarray(view)``, ``len(view)``, ``view[i]``,
``view.shape``/``dtype``/``size`` all delegate to the wrapped array, exactly
like :class:`repro.engine.shm.SharedArray`.  A runner that ignores sketches
and simply converts its ``data`` argument keeps working unchanged — and a
plain ``np.ndarray`` handed to a sketch-aware estimator takes the legacy
per-query path.  The contract every fast path must honour: **answers are
bit-for-bit identical whether or not the input carries sketches.**

Sketch vocabulary
-----------------
``sorted``
    ``np.sort(np.asarray(data, dtype=float))`` — the n·log n every quantile
    style estimator used to pay per query.
``sorted_abs``
    ``np.sort(np.abs(np.asarray(data, dtype=float)))`` — the radius
    estimator's representation; composes exactly with grid snapping because
    ``|rint(x/b)| == rint(|x|/b)`` and rounding is monotone.
``prefix_sums``
    ``[0, cumsum(sorted)]`` — range-sum queries over the sorted order.
    Deliberately **not** substituted into existing mean/variance releases:
    ``np.sum``/``np.mean`` use pairwise summation, so a prefix-sum
    reformulation would change float results.  Available for new kinds that
    define their release in terms of it from the start.
``moments``
    ``(n, Σx, Σx²)`` — cheap scalar summaries, same caveat as above.

Reading sketches
----------------
Sketch consumers never copy a sketch O(n) per query.  A release that needs
the sketch snapped to a grid, clipped or re-centred reads it through those
maps lazily: :class:`SortedMap` pairs a sorted sketch with a non-decreasing
elementwise map, so counts are O(log n) probes of single elements and only
the slice a mechanism can actually use is ever mapped.  Each map is the
very NumPy expression the plain path applies to the whole array, so every
mapped element is bit-for-bit what the plain path computes.

Sharing
-------
Sketches are ordinary arrays here; the service registry swaps them for
:class:`~repro.engine.shm.SharedArray` segments on ``share=True`` datasets,
and pickling a view then ships only segment names — workers attach instead
of recomputing (see ``repro/engine/shm.py``).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro.exceptions import DomainError

__all__ = [
    "SKETCH_KINDS",
    "DatasetView",
    "SortedMap",
    "as_view",
    "unwrap",
    "validate_needs",
]

#: Every sketch name an :class:`EstimatorSpec` may declare in ``needs``.
SKETCH_KINDS: Tuple[str, ...] = ("sorted", "sorted_abs", "prefix_sums", "moments")


def validate_needs(needs: Iterable[str], *, where: str = "spec") -> Tuple[str, ...]:
    """Canonicalise a ``needs`` declaration against :data:`SKETCH_KINDS`."""
    cleaned = tuple(str(name) for name in needs)
    unknown = sorted(set(cleaned) - set(SKETCH_KINDS))
    if unknown:
        raise DomainError(
            f"{where}: unknown sketch kind(s) {unknown}; "
            f"expected a subset of {list(SKETCH_KINDS)}"
        )
    duplicates = sorted({name for name in cleaned if cleaned.count(name) > 1})
    if duplicates:
        raise DomainError(f"{where}: duplicate sketch kind(s) {duplicates}")
    return cleaned


class DatasetView:
    """One dataset plus its lazily-materialised sketch cache.

    ``base`` may be a plain ``np.ndarray`` or any array-like (notably a
    :class:`~repro.engine.shm.SharedArray`); sketches likewise.  Thread-safe:
    every cache access holds the view's re-entrant lock, so a sketch is
    materialised exactly once however many threads ask for it concurrently
    (re-entrant because ``prefix_sums`` materialises through ``sorted``).
    """

    __slots__ = ("_base", "_sketches", "_lock")

    def __init__(
        self,
        base: Any,
        sketches: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self._base = base
        self._sketches: Dict[str, Any] = dict(sketches or {})
        unknown = sorted(set(self._sketches) - set(SKETCH_KINDS))
        if unknown:
            raise DomainError(
                f"DatasetView: unknown sketch kind(s) {unknown}; "
                f"expected a subset of {list(SKETCH_KINDS)}"
            )
        self._lock = threading.RLock()

    # -- array-like protocol (the compatibility shim) -----------------------
    def __array__(self, dtype=None, copy=None):
        array = np.asarray(self._base)
        if dtype is not None:
            array = array.astype(dtype, copy=False)
        if copy:
            array = array.copy()
        return array

    def __len__(self) -> int:
        return len(np.asarray(self._base))

    def __getitem__(self, key):
        return np.asarray(self._base)[key]

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(np.asarray(self._base).shape)

    @property
    def dtype(self):
        return np.asarray(self._base).dtype

    @property
    def size(self) -> int:
        return int(np.asarray(self._base).size)

    @property
    def ndim(self) -> int:
        return int(np.asarray(self._base).ndim)

    # -- access -------------------------------------------------------------
    @property
    def base(self) -> Any:
        """The wrapped storage object (ndarray or SharedArray)."""
        return self._base

    @property
    def raw(self) -> np.ndarray:
        """The raw data as an ndarray (zero-copy where the base allows)."""
        return np.asarray(self._base)

    def has(self, name: str) -> bool:
        """Whether sketch ``name`` is already materialised (no computation)."""
        with self._lock:
            return name in self._sketches

    def sketch(self, name: str) -> np.ndarray:
        """Sketch ``name``, materialising and caching it on first use."""
        with self._lock:
            stored = self._sketches.get(name)
            if stored is None:
                stored = self._compute(name)
                self._sketches[name] = stored
        return np.asarray(stored)

    @property
    def sorted_values(self) -> np.ndarray:
        """``np.sort(np.asarray(data, dtype=float))`` — cached."""
        return self.sketch("sorted")

    @property
    def sorted_abs(self) -> np.ndarray:
        """``np.sort(np.abs(np.asarray(data, dtype=float)))`` — cached."""
        return self.sketch("sorted_abs")

    def precompute(self, needs: Iterable[str]) -> "DatasetView":
        """Eagerly materialise every sketch in ``needs`` (registration time)."""
        for name in validate_needs(needs, where="DatasetView.precompute"):
            self.sketch(name)
        return self

    def sketches(self) -> Dict[str, Any]:
        """The materialised sketches as stored (ndarray or SharedArray each).

        A snapshot in :data:`SKETCH_KINDS` order; used by the shared-memory
        hand-off to re-home sketch storage without recomputing anything.
        """
        with self._lock:
            return {
                name: self._sketches[name]
                for name in SKETCH_KINDS
                if name in self._sketches
            }

    # -- accounting ---------------------------------------------------------
    def sketch_footprint(self) -> Dict[str, int]:
        """Bytes held per materialised sketch (stable name order)."""
        return {
            name: int(np.asarray(stored).nbytes)
            for name, stored in self.sketches().items()
        }

    def sketch_nbytes(self) -> int:
        """Total bytes held by materialised sketches."""
        return sum(self.sketch_footprint().values())

    # -- internals ----------------------------------------------------------
    def _compute(self, name: str) -> np.ndarray:
        """Derive sketch ``name`` from the base data.

        Caller must hold ``self._lock.`` (Re-entrant: ``prefix_sums``
        materialises via :meth:`sketch`.)
        """
        data = np.asarray(self._base, dtype=float)
        if name in ("sorted", "sorted_abs", "prefix_sums") and data.ndim != 1:
            raise DomainError(
                f"sketch {name!r} is defined for 1-D datasets, got shape "
                f"{data.shape}"
            )
        if name == "sorted":
            return np.sort(data)
        if name == "sorted_abs":
            return np.sort(np.abs(data))
        if name == "prefix_sums":
            return np.concatenate(([0.0], np.cumsum(self.sketch("sorted"))))
        if name == "moments":
            flat = data.reshape(-1)
            return np.array(
                [float(flat.size), float(np.sum(flat)), float(np.sum(flat * flat))]
            )
        raise DomainError(
            f"unknown sketch kind {name!r}; expected one of {list(SKETCH_KINDS)}"
        )

    # -- pickling (sketches ride along; SharedArrays ship by segment name) --
    def __getstate__(self):
        return {"base": self._base, "sketches": self.sketches()}

    def __setstate__(self, state) -> None:
        self._base = state["base"]
        self._sketches = dict(state["sketches"])
        self._lock = threading.RLock()

    def __repr__(self) -> str:
        shape = "x".join(str(dim) for dim in self.shape)
        names = ",".join(sorted(self.sketches())) or "none"
        return f"DatasetView(shape={shape}, sketches={names})"


class SortedMap:
    """A sorted array read lazily through a non-decreasing elementwise map.

    ``fn`` maps a 1-D slice of ``base`` to its images and must be elementwise
    and non-decreasing (``None`` is the identity), so the images of a sorted
    ``base`` are sorted too and every search runs on ``base`` indices,
    mapping one element per probe.  ``guess`` is a speed hint only: it maps
    an image threshold to a nearby ``base`` value, where the searches of
    :meth:`count_le` / :meth:`count_lt` start before galloping outward.
    """

    __slots__ = ("base", "_fn", "_guess")

    def __init__(
        self,
        base: Any,
        fn: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        guess: Optional[Callable[[float], float]] = None,
    ) -> None:
        self.base = np.asarray(base)
        self._fn = fn
        self._guess = guess

    def __len__(self) -> int:
        return int(self.base.size)

    def take(self, start: int, stop: int) -> np.ndarray:
        """The images of ``base[start:stop]``."""
        chunk = self.base[start:stop]
        return chunk if self._fn is None else self._fn(chunk)

    def at(self, index: int):
        """The image of ``base[index]``."""
        return self.take(index, index + 1)[0]

    def ends(self) -> np.ndarray:
        """The images of the first and last element (the extremes)."""
        chunk = self.base[[0, -1]]
        return chunk if self._fn is None else self._fn(chunk)

    def then(
        self, fn: Callable[[np.ndarray], np.ndarray], shift: float = 0.0
    ) -> "SortedMap":
        """Compose ``fn`` (non-decreasing) after this map.

        ``shift`` keeps the search hint valid when ``fn`` subtracts a
        constant: the image threshold ``t`` is sought at ``t + shift``.
        """
        inner, guess = self._fn, self._guess
        composed = fn if inner is None else (lambda chunk: fn(inner(chunk)))
        moved = None if guess is None else (lambda t: guess(t + shift))
        return SortedMap(self.base, composed, moved)

    def count_le(self, threshold: float) -> int:
        """How many images are ``<= threshold``."""
        return self._partition(lambda v: v <= threshold, self._start(threshold, "right"))

    def count_lt(self, threshold: float) -> int:
        """How many images are ``< threshold``."""
        return self._partition(lambda v: v < threshold, self._start(threshold, "left"))

    def _start(self, threshold: float, side: str) -> int:
        if self._guess is None:
            return len(self) // 2
        return int(np.searchsorted(self.base, self._guess(threshold), side=side))

    def _partition(self, holds: Callable[[Any], bool], start: int) -> int:
        """Length of the prefix whose images satisfy ``holds``.

        ``holds`` must be true on a prefix and false after it.  Gallops out
        from ``start`` to bracket the boundary, then bisects the bracket:
        O(log d) probes for a boundary ``d`` elements from ``start``.
        """
        n = len(self)
        lo, hi = start - 1, start  # lo: last known true (-1), hi: first known false (n)
        if lo >= 0 and not holds(self.at(lo)):
            hi, step = lo, 1
            lo = hi - 1
            while lo >= 0 and not holds(self.at(lo)):
                hi, step = lo, step * 2
                lo = hi - step
            lo = max(lo, -1)
        elif hi < n and holds(self.at(hi)):
            lo, step = hi, 1
            hi = lo + 1
            while hi < n and holds(self.at(hi)):
                lo, step = hi, step * 2
                hi = lo + step
            hi = min(hi, n)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if holds(self.at(mid)):
                lo = mid
            else:
                hi = mid
        return hi


def as_view(data: Any, needs: Iterable[str] = ()) -> DatasetView:
    """Wrap ``data`` in a view (idempotent), precomputing ``needs`` if given."""
    view = data if isinstance(data, DatasetView) else DatasetView(data)
    if needs:
        view.precompute(needs)
    return view


def unwrap(data: Any) -> np.ndarray:
    """The raw ndarray behind ``data`` whether or not it is a view."""
    return data.raw if isinstance(data, DatasetView) else np.asarray(data)
