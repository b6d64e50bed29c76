"""Discretization of the real line onto the integer grid ``b * Z`` (Section 3.5).

The empirical estimators of Section 3 are defined over the unbounded integer
domain Z.  To apply them to real data the paper discretizes R with a bucket
size ``b``: every value ``x`` is mapped to the nearest multiple of ``b``.
Discretization introduces an additive error of at most ``b / 2 <= b`` to every
value and converts widths/radii by a factor of ``1 / b``, which is where the
extra ``+ 3b`` / ``+ 6b`` terms in Theorems 3.6-3.9 come from.

:class:`Grid` encapsulates the bucket size together with the forward
(``to_grid``) and backward (``from_grid``) maps so that callers never multiply
by the wrong factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from repro.dataview import SortedMap
from repro.exceptions import DomainError

__all__ = ["Grid"]

ArrayLike = Union[Sequence[float], np.ndarray]


@dataclass(frozen=True)
class Grid:
    """The integer grid ``{k * bucket_size : k in Z}``.

    Parameters
    ----------
    bucket_size:
        The spacing ``b`` between grid points; must be positive and finite.
        ``Grid.unit()`` gives the identity grid (``b = 1``) used when the data
        are already integers.
    """

    bucket_size: float

    def __post_init__(self) -> None:
        b = float(self.bucket_size)
        if not math.isfinite(b) or b <= 0.0:
            raise DomainError(f"bucket_size must be positive and finite, got {self.bucket_size!r}")
        object.__setattr__(self, "bucket_size", b)

    @staticmethod
    def unit() -> "Grid":
        """The grid with bucket size 1 (integer data passes through unchanged)."""
        return Grid(1.0)

    #: Largest grid index magnitude representable without risking int64
    #: overflow during downstream arithmetic (shifts, doubling searches).
    _MAX_INDEX = float(2**62)

    def to_grid(self, values: ArrayLike) -> np.ndarray:
        """Map real values to integer grid indices (nearest multiple of ``b``).

        Raises
        ------
        DomainError
            If any value is non-finite or its grid index would overflow int64
            (i.e. the bucket size is far too small for the data's magnitude).
        """
        data = np.asarray(values, dtype=float)
        if data.size and not np.all(np.isfinite(data)):
            raise DomainError("cannot discretize non-finite values")
        scaled = data / self.bucket_size
        if scaled.size and float(np.max(np.abs(scaled))) > self._MAX_INDEX:
            raise DomainError(
                f"bucket size {self.bucket_size:g} is too small for data of magnitude "
                f"{float(np.max(np.abs(data))):g}; grid indices would overflow"
            )
        return np.rint(scaled).astype(np.int64)

    def sorted_map(self, sorted_values: ArrayLike) -> SortedMap:
        """``to_grid(sorted_values).astype(float)``, read lazily.

        ``sorted_values`` must be ascending (NaN last, as ``np.sort`` puts
        it).  The snap is monotone, so the extremes sit at the two ends and
        :meth:`to_grid`'s checks run on those two elements alone, raising
        the same errors it raises for the whole array.
        """
        base = np.asarray(sorted_values)
        if base.size:
            self.to_grid(base[[0, -1]])
        bucket = self.bucket_size
        return SortedMap(
            base,
            lambda chunk: np.rint(chunk / bucket).astype(np.int64).astype(float),
            lambda t: t * bucket,
        )

    def to_grid_scalar(self, value: float) -> int:
        """Map a single real value to its grid index."""
        if not math.isfinite(value):
            raise DomainError(f"cannot discretize non-finite value {value!r}")
        return int(round(value / self.bucket_size))

    def from_grid(self, indices: ArrayLike) -> np.ndarray:
        """Map grid indices back to real values."""
        return np.asarray(indices, dtype=float) * self.bucket_size

    def from_grid_scalar(self, index: float) -> float:
        """Map a single grid index back to a real value."""
        return float(index) * self.bucket_size

    def round_trip_error_bound(self) -> float:
        """Maximum additive error introduced by one discretization round trip."""
        return self.bucket_size / 2.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Grid(bucket_size={self.bucket_size:g})"
