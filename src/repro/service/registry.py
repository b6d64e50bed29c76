"""Dataset registry and budget accounting for the private-query service.

Each registered dataset carries a :class:`BudgetManager`: a total privacy
budget (and optional per-analyst sub-budgets) layered on
:class:`~repro.accounting.PrivacyLedger`.  Admission is a two-phase
*reserve → commit* protocol, atomic under the manager's lock:

* :meth:`BudgetManager.reserve` checks ``spent + reserved + requested``
  against every applicable cap and either admits the query (holding the
  reservation so concurrent queries cannot jointly oversubscribe) or raises
  :class:`~repro.exceptions.BudgetExceededError` **leaving the ledger
  unchanged** — a refused query costs nothing and observes nothing.
* :meth:`BudgetManager.commit` releases the reservation and records the
  epsilon the estimator *actually* spent (measured from its own per-query
  ledger; reservations are exact upper bounds, see
  :data:`repro.service.queries.QUERY_KINDS`).  :meth:`BudgetManager.cancel`
  releases a reservation that never executed (e.g. an infrastructure error
  before the estimator touched the data).

The admission decision depends only on public parameters (query kind,
epsilon, dataset size) — never on the data — so the accept/refuse pattern
itself leaks nothing.

Datasets register through :class:`DatasetRegistry`.  With ``share=True`` the
data is copied once into a :class:`~repro.engine.SharedArray` segment, so
fanning queries out across an :class:`~repro.engine.EnginePool` ships only
the segment name instead of pickling the array into every worker.

Registration is also where dataset **sketches** are paid for: unless
``sketches=False``, a 1-D dataset is stored as a
:class:`~repro.dataview.DatasetView` whose sketch cache is materialised once
from the union of ``EstimatorSpec.needs`` over the kinds the dataset serves.
Every cold query then reads the registration-time sorted/absolute-sorted
copies instead of re-deriving them, and ``share=True`` puts the sketches in
shared memory alongside the data so pool workers attach rather than
recompute.  The memory cost is visible in ``to_json()`` (and hence
``GET /datasets`` / ``stats()``) under ``"sketches"``.

**Joint budget groups** extend the same semantics across datasets: a group
created with :meth:`DatasetRegistry.create_group` owns one
:class:`BudgetManager`, and every dataset registered with ``group=`` draws
from that single cap.  Reserve/commit stays unchanged — it simply runs
against the shared manager — so exhausting the joint cap refuses queries on
*every* member dataset, with the group ledger untouched by the refusals.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.accounting import PrivacyLedger, validate_epsilon
from repro.dataview import SKETCH_KINDS, DatasetView
from repro.engine import SharedArray, share_view, unlink_all, view_segments
from repro.exceptions import BudgetExceededError, DomainError, InsufficientDataError

__all__ = [
    "BudgetManager",
    "RemoteBudgetManager",
    "Reservation",
    "DatasetRegistry",
    "RegisteredDataset",
    "UnknownDatasetError",
]


class UnknownDatasetError(DomainError):
    """A query named a dataset that is not registered."""


@dataclass(frozen=True)
class Reservation:
    """An admitted-but-uncommitted claim on a budget manager.

    Hand it back to exactly one of :meth:`BudgetManager.commit` /
    :meth:`BudgetManager.cancel`.
    """

    amount: float
    analyst: Optional[str]
    token: int


class BudgetManager:
    """Atomic check-and-spend over one dataset's total (and analyst) budgets.

    Parameters
    ----------
    capacity:
        Total epsilon the dataset may ever spend.
    analyst_budgets:
        Optional per-analyst caps.  An analyst with a cap draws from both its
        own sub-budget and the total; analysts without an entry are bounded
        only by the total.
    """

    #: Relative admission tolerance (scaled by each cap; see ``_slack``).
    _RTOL = 1e-9

    def __init__(
        self,
        capacity: float,
        *,
        analyst_budgets: Optional[Mapping[str, float]] = None,
    ):
        self._capacity = validate_epsilon(capacity, name="capacity")
        self._ledger = PrivacyLedger()  # uncapped: the manager enforces caps
        self._reserved = 0.0
        self._analyst_caps: Dict[str, float] = {}
        self._analyst_spent: Dict[str, float] = {}
        self._analyst_reserved: Dict[str, float] = {}
        for name, cap in dict(analyst_budgets or {}).items():
            self._analyst_caps[str(name)] = validate_epsilon(
                cap, name=f"analyst budget {name!r}"
            )
            self._analyst_spent[str(name)] = 0.0
            self._analyst_reserved[str(name)] = 0.0
        self._lock = threading.Lock()
        self._tokens = 0
        # Admission slack for floating-point round-off.  The slack must scale
        # with the capacity: after thousands of small commits the accumulated
        # summation error grows like ``n * ulp(capacity)``, so a fixed
        # absolute tolerance would wrongly refuse (or, for tiny capacities,
        # wrongly admit) the final exactly-fitting query.  ``max(capacity, 1)``
        # keeps a sane absolute floor for sub-unit budgets.
        self._slack = self._RTOL * max(self._capacity, 1.0)

    # -- introspection -----------------------------------------------------
    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def ledger(self) -> PrivacyLedger:
        """The underlying ledger of committed spends (one entry per release)."""
        return self._ledger

    @property
    def spent(self) -> float:
        """Total epsilon committed so far."""
        return self._ledger.total_epsilon

    @property
    def reserved(self) -> float:
        """Epsilon held by in-flight (admitted, not yet committed) queries."""
        with self._lock:
            return self._reserved

    @property
    def remaining(self) -> float:
        """Budget still grantable: ``capacity - spent - reserved``."""
        with self._lock:
            return max(self._capacity - self._ledger.total_epsilon - self._reserved, 0.0)

    @property
    def reported_remaining(self) -> float:
        """The ``remaining`` an answer reports: the live value for a local ledger."""
        return self.remaining

    def analyst_remaining(self, analyst: str) -> Optional[float]:
        """Remaining sub-budget for ``analyst`` (``None`` when uncapped)."""
        with self._lock:
            if analyst not in self._analyst_caps:
                return None
            return max(
                self._analyst_caps[analyst]
                - self._analyst_spent[analyst]
                - self._analyst_reserved[analyst],
                0.0,
            )

    def analyst_budgets(self) -> Dict[str, Dict[str, float]]:
        """Snapshot of every capped analyst's cap / spent / reserved."""
        with self._lock:
            return {
                name: {
                    "capacity": self._analyst_caps[name],
                    "spent": self._analyst_spent[name],
                    "reserved": self._analyst_reserved[name],
                }
                for name in self._analyst_caps
            }

    def rotate_analyst_budgets(
        self, analyst_budgets: Optional[Mapping[str, float]]
    ) -> None:
        """Replace the per-analyst caps, preserving spend/reservation history.

        The control-plane primitive behind a live ``analyst_budgets`` config
        change: raising a cap grants headroom immediately, lowering one below
        the analyst's committed spend refuses their next query without ever
        forgiving the historical spend, and dropping an analyst lifts their
        sub-cap (the total budget still binds).  In-flight reservations of a
        dropped analyst stay counted against the total and release cleanly.
        """
        budgets = {
            str(name): validate_epsilon(cap, name=f"analyst budget {name!r}")
            for name, cap in dict(analyst_budgets or {}).items()
        }
        with self._lock:
            self._analyst_caps = budgets
            # Spent/reserved history outlives cap rotation on purpose: a
            # re-added analyst must not restart from zero spend.
            for name in budgets:
                self._analyst_spent.setdefault(name, 0.0)
                self._analyst_reserved.setdefault(name, 0.0)

    # -- the two-phase protocol --------------------------------------------
    def _admission_error(self, amount: float, analyst: Optional[str]) -> Optional[str]:
        """The refusal message for a claim of ``amount``, or ``None`` if it fits.

        Caller must hold ``self._lock``.  The check allows ``_slack`` epsilon
        of capacity-relative float round-off on each cap.
        """
        spent = self._ledger.total_epsilon
        if spent + self._reserved + amount > self._capacity + self._slack:
            return (
                f"query needs {amount:.6g} epsilon but only "
                f"{max(self._capacity - spent - self._reserved, 0.0):.6g} of the "
                f"total budget {self._capacity:.6g} remains"
            )
        if analyst is not None and analyst in self._analyst_caps:
            cap = self._analyst_caps[analyst]
            used = self._analyst_spent[analyst] + self._analyst_reserved[analyst]
            if used + amount > cap + self._RTOL * max(cap, 1.0):
                return (
                    f"analyst {analyst!r} needs {amount:.6g} epsilon but only "
                    f"{max(cap - used, 0.0):.6g} of their sub-budget {cap:.6g} remains"
                )
        return None

    def peek(self, amount: float, *, analyst: Optional[str] = None) -> Optional[str]:
        """Would a claim of ``amount`` be refused right now?

        Returns the refusal message (without reserving anything) or ``None``
        when the claim would currently be admitted.  This is the zero-side-
        effect admission probe the async front-end uses to answer sure
        refusals directly on the event loop; it is a point-in-time answer,
        exactly what :meth:`reserve` would decide at this instant.
        """
        amount = validate_epsilon(amount, name="reservation")
        with self._lock:
            return self._admission_error(amount, analyst)

    def reserve(self, amount: float, *, analyst: Optional[str] = None) -> Reservation:
        """Atomically admit a claim of ``amount`` epsilon or refuse it.

        Raises :class:`~repro.exceptions.BudgetExceededError` without any
        side effect when the claim does not fit the total budget or the
        analyst's sub-budget.
        """
        amount = validate_epsilon(amount, name="reservation")
        with self._lock:
            error = self._admission_error(amount, analyst)
            if error is not None:
                raise BudgetExceededError(error)
            if analyst is not None and analyst in self._analyst_caps:
                self._analyst_reserved[analyst] += amount
            self._reserved += amount
            self._tokens += 1
            return Reservation(amount=amount, analyst=analyst, token=self._tokens)

    def commit(self, reservation: Reservation, actual: float, *, label: str) -> Tuple[float, float]:
        """Release ``reservation`` and record the measured spend ``actual``.

        ``actual`` may be below the reservation (the usual case: amplified
        probes charge less than their nominal epsilon) and the difference is
        returned to the pool; it is recorded truthfully even in the
        (model-breaking) event it exceeds the reservation.  A zero ``actual``
        — an estimator that failed before touching any mechanism — releases
        the reservation without a ledger entry.  Returns ``(charged,
        remaining)``, the budget left read under the same lock.
        """
        actual = float(actual)
        if actual < 0.0 or not np.isfinite(actual):
            raise DomainError(f"actual spend must be finite and >= 0, got {actual}")
        with self._lock:
            self._release(reservation)
            if actual > 0.0:
                self._ledger.charge(label, actual)
                # Keyed on the history dict, not the live caps: a cap rotated
                # away mid-flight must still see its spend recorded, so a
                # later re-added cap accounts the analyst exactly.
                if reservation.analyst is not None and reservation.analyst in self._analyst_spent:
                    self._analyst_spent[reservation.analyst] += actual
            remaining = max(self._capacity - self._ledger.total_epsilon - self._reserved, 0.0)
        return actual, remaining

    def cancel(self, reservation: Reservation) -> None:
        """Release ``reservation`` without recording any spend."""
        with self._lock:
            self._release(reservation)

    def _release(self, reservation: Reservation) -> None:
        """Drop a reservation's hold. Caller must hold ``self._lock``."""
        self._reserved = max(self._reserved - reservation.amount, 0.0)
        if reservation.analyst is not None and reservation.analyst in self._analyst_reserved:
            self._analyst_reserved[reservation.analyst] = max(
                self._analyst_reserved[reservation.analyst] - reservation.amount, 0.0
            )

    def to_json(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the budget state."""
        with self._lock:
            spent = self._ledger.total_epsilon
            return {
                "capacity": self._capacity,
                "spent": spent,
                "reserved": self._reserved,
                "remaining": max(self._capacity - spent - self._reserved, 0.0),
                "releases": len(self._ledger),
                "analysts": {
                    name: {
                        "capacity": self._analyst_caps[name],
                        "spent": self._analyst_spent[name],
                        "remaining": max(
                            self._analyst_caps[name]
                            - self._analyst_spent[name]
                            - self._analyst_reserved[name],
                            0.0,
                        ),
                    }
                    for name in self._analyst_caps
                },
            }


class RemoteBudgetManager:
    """A coordinator-owned budget, speaking the :class:`BudgetManager` contract.

    In a ``repro.cluster`` deployment every joint budget group spans
    shards, so its ledger lives in the coordinator process and each shard
    holds this proxy instead of a local manager.  The proxy satisfies the
    exact surface the executor, admin plane and metrics renderer consume —
    ``peek`` / ``reserve`` / ``commit`` / ``cancel``, the introspection
    properties, ``analyst_*`` and ``to_json`` — by delegating each call but
    ``peek`` to one RPC round-trip (see :mod:`repro.cluster.coordinator`).
    Semantics are those of the coordinator's own :class:`BudgetManager`
    under its lock, which is what makes reserve→commit atomic cluster-wide.

    An answer's ``remaining`` (:attr:`reported_remaining`) is the value the
    coordinator last reported to this process, refreshed from every reply
    that carries one (``create``, ``reserve`` admitted or refused,
    ``commit``, ``cancel`` and each snapshot), so a cache hit or a refusal
    makes no RPC; a cache hit's can lag spend made through other shards
    since.  ``remaining`` and :meth:`to_json` stay live snapshots.

    Transport failures surface as
    :class:`~repro.exceptions.CoordinatorUnavailableError`; the executor
    maps them to structured ``coordinator_unavailable`` refusals rather
    than ever falling back to a shard-local ledger (which would silently
    double-count joint spend).

    The ``client`` is duck-typed (anything with ``call(op, **fields)``,
    usually :class:`repro.cluster.rpc.CoordinatorClient`) so this module
    never imports ``repro.cluster``.
    """

    def __init__(
        self,
        owner: str,
        client: Any,
        *,
        capacity: float,
        analyst_budgets: Optional[Mapping[str, float]] = None,
    ):
        self._owner = str(owner)
        self._client = client
        self._capacity = validate_epsilon(capacity, name="capacity")
        caps = {
            str(name): validate_epsilon(cap, name=f"analyst budget {name!r}")
            for name, cap in dict(analyst_budgets or {}).items()
        }
        response = client.call(
            "create",
            owner=self._owner,
            capacity=self._capacity,
            analyst_budgets=caps,
        )
        self._reported = float(response["remaining"])

    # -- introspection -----------------------------------------------------
    @property
    def owner(self) -> str:
        """The coordinator-side ledger name (e.g. ``group:pilot``)."""
        return self._owner

    @property
    def capacity(self) -> float:
        return self._capacity

    def _snapshot(self) -> Dict[str, Any]:
        budget = self._client.call("snapshot", owner=self._owner)["budget"]
        self._reported = float(budget["remaining"])
        return budget

    @property
    def spent(self) -> float:
        return float(self._snapshot()["spent"])

    @property
    def reserved(self) -> float:
        return float(self._snapshot()["reserved"])

    @property
    def remaining(self) -> float:
        return float(self._snapshot()["remaining"])

    @property
    def reported_remaining(self) -> float:
        """The ``remaining`` of the coordinator's last reply; no round trip."""
        return self._reported

    def analyst_remaining(self, analyst: str) -> Optional[float]:
        response = self._client.call(
            "analyst_remaining", owner=self._owner, analyst=str(analyst)
        )
        remaining = response.get("remaining")
        return None if remaining is None else float(remaining)

    def analyst_budgets(self) -> Dict[str, Dict[str, float]]:
        snapshot = self._snapshot()["analysts"]
        return {
            name: {
                "capacity": float(entry["capacity"]),
                "spent": float(entry["spent"]),
                "reserved": float(
                    entry.get(
                        "reserved",
                        entry["capacity"] - entry["spent"] - entry["remaining"],
                    )
                ),
            }
            for name, entry in snapshot.items()
        }

    def rotate_analyst_budgets(
        self, analyst_budgets: Optional[Mapping[str, float]]
    ) -> None:
        caps = {
            str(name): validate_epsilon(cap, name=f"analyst budget {name!r}")
            for name, cap in dict(analyst_budgets or {}).items()
        }
        self._client.call("rotate", owner=self._owner, analyst_budgets=caps)

    # -- the two-phase protocol --------------------------------------------
    def peek(self, amount: float, *, analyst: Optional[str] = None) -> Optional[str]:
        """Never refuses: a remote ledger's admission probe defers to :meth:`reserve`.

        A probe would be a coordinator round trip under the executor's
        admission lock (on an async shard, on the event loop too), and its
        answer could be stale by the reserve anyway.  ``None`` sends the
        query on to ``submit``, whose ``reserve`` refuses with the same
        document.
        """
        return None

    def reserve(self, amount: float, *, analyst: Optional[str] = None) -> Reservation:
        amount = validate_epsilon(amount, name="reservation")
        try:
            response = self._client.call(
                "reserve", owner=self._owner, amount=amount, analyst=analyst
            )
        except BudgetExceededError as exc:
            self._reported = float(exc.remaining)
            raise
        self._reported = float(response["remaining"])
        return Reservation(amount=amount, analyst=analyst, token=int(response["token"]))

    def commit(self, reservation: Reservation, actual: float, *, label: str) -> Tuple[float, float]:
        response = self._client.call(
            "commit", token=reservation.token, actual=float(actual), label=str(label)
        )
        self._reported = float(response["remaining"])
        return float(response["charged"]), self._reported

    def cancel(self, reservation: Reservation) -> None:
        response = self._client.call("cancel", token=reservation.token)
        self._reported = float(response["remaining"])

    def to_json(self) -> Dict[str, Any]:
        return self._snapshot()


@dataclass
class RegisteredDataset:
    """One dataset under service management.

    Attributes
    ----------
    name:
        Registry key (the name clients address queries to).
    data:
        The records: a 1-D array for univariate statistics or an ``(n, d)``
        array for the multivariate estimators.  Usually a
        :class:`~repro.dataview.DatasetView` carrying registration-time
        sketches (``sketches=True``); the view's base — or ``data`` itself
        under ``sketches=False`` — may be a
        :class:`~repro.engine.SharedArray` (``share=True`` registration).
    budget:
        The dataset's :class:`BudgetManager` — private to the dataset, or
        the shared manager of its joint budget group.
    group:
        Name of the joint budget group the dataset belongs to, or ``None``
        when it has a budget of its own.
    kinds:
        Optional allowlist of the registered estimator kinds this dataset
        serves (``None`` = every registered kind); enforced by the planner
        before any budget is touched.
    draining:
        When set (via :meth:`DatasetRegistry.set_draining`, usually through
        the admin surface) the service stops admitting fresh releases on
        this dataset — cached answers keep being served — so it can be
        removed without cutting off clients mid-flight.
    """

    name: str
    data: Any
    budget: BudgetManager
    group: Optional[str] = None
    kinds: Optional[Tuple[str, ...]] = None
    draining: bool = False

    @property
    def records(self) -> int:
        return int(len(self.data))

    @property
    def dimension(self) -> int:
        shape = self.data.shape
        return int(shape[1]) if len(shape) > 1 else 1

    @property
    def view(self) -> Optional[DatasetView]:
        """The dataset's :class:`DatasetView`, or ``None`` (``sketches=False``)."""
        return self.data if isinstance(self.data, DatasetView) else None

    @property
    def shared(self) -> bool:
        storage = self.data.base if isinstance(self.data, DatasetView) else self.data
        return isinstance(storage, SharedArray)

    @property
    def budget_owner(self) -> str:
        """The stable identity of this dataset's ledger for the audit trail.

        ``group:<name>`` for joint-group members (whose spends share one
        :class:`BudgetManager`), ``dataset:<name>`` for private budgets —
        the key ``repro audit spend`` replays totals under, matching how
        ``GET /datasets`` reports the same ledgers.
        """
        if self.group is not None:
            return f"group:{self.group}"
        return f"dataset:{self.name}"

    def to_json(self) -> Dict[str, Any]:
        view = self.view
        if view is None:
            sketches: Optional[Dict[str, Any]] = None
        else:
            footprint = view.sketch_footprint()
            sketches = {
                "names": list(footprint),
                "nbytes": footprint,
                "total_nbytes": view.sketch_nbytes(),
            }
        return {
            "name": self.name,
            "records": self.records,
            "dimension": self.dimension,
            "shared": self.shared,
            "group": self.group,
            "kinds": None if self.kinds is None else sorted(self.kinds),
            "sketches": sketches,
            "draining": self.draining,
            "budget": self.budget.to_json(),
        }


def _declared_needs(kinds: Optional[Tuple[str, ...]]) -> Tuple[str, ...]:
    """Union of ``EstimatorSpec.needs`` over the kinds a dataset serves.

    ``None`` (no allowlist) unions over every registered kind.  The result
    keeps :data:`SKETCH_KINDS` order so footprints and hand-offs are stable.
    """
    from repro.estimators import get_estimator, iter_estimators

    if kinds is None:
        specs = list(iter_estimators())
    else:
        specs = [get_estimator(kind) for kind in kinds]
    needed = {name for spec in specs for name in spec.needs}
    return tuple(name for name in SKETCH_KINDS if name in needed)


def _release_storage(data: Any) -> None:
    """Unlink whatever shared segments ``data`` holds (no-op for ndarrays)."""
    if isinstance(data, DatasetView):
        unlink_all(view_segments(data))
    elif isinstance(data, SharedArray):
        data.unlink()


def _validated_kinds(
    name: str, kinds: Optional[Sequence[str]]
) -> Optional[Tuple[str, ...]]:
    """Normalise a ``kinds=`` allowlist, rejecting unknown estimator kinds.

    Shared by registration and the live ``update_kinds`` path so a config
    typo fails loudly in both — at boot and at reload — never at query time.
    """
    if kinds is None:
        return None
    from repro.estimators import registered_kinds

    allowed = tuple(dict.fromkeys(str(kind) for kind in kinds))
    if not allowed:
        raise DomainError(
            f"dataset {name!r}: kinds= must name at least one estimator "
            "kind (omit it to serve every registered kind)"
        )
    known = set(registered_kinds())
    unknown = sorted(set(allowed) - known)
    if unknown:
        raise DomainError(
            f"dataset {name!r}: unknown estimator kind(s) {unknown} "
            f"(registered: {sorted(known)})"
        )
    return allowed


class DatasetRegistry:
    """Thread-safe name → :class:`RegisteredDataset` mapping.

    Datasets either carry their own :class:`BudgetManager` (``total_budget=``)
    or join a **joint budget group** (``group=``): one shared manager created
    up-front with :meth:`create_group` whose single cap spans every member
    dataset.  Usable as a context manager: exiting unlinks any shared-memory
    segments the registry owns.
    """

    def __init__(self):
        self._datasets: Dict[str, RegisteredDataset] = {}
        self._groups: Dict[str, BudgetManager] = {}
        self._lock = threading.Lock()

    # -- joint budget groups -----------------------------------------------
    def create_group(
        self,
        name: str,
        capacity: float,
        *,
        analyst_budgets: Optional[Mapping[str, float]] = None,
        manager: Optional[Any] = None,
    ) -> BudgetManager:
        """Create a joint budget group: one cap shared by its member datasets.

        Reserve/commit semantics are exactly those of a per-dataset budget —
        the members simply run them against one shared manager, so a query on
        any member draws the group down for all of them, and exhausting the
        cap refuses queries on every member with the group ledger unchanged.

        ``manager`` installs a pre-built manager under the group name
        instead of constructing a local :class:`BudgetManager` — this is
        how a cluster shard mounts the coordinator-owned ledger (a
        :class:`RemoteBudgetManager`) so that joint admission stays atomic
        across shards.  ``analyst_budgets`` belongs to whoever built the
        manager in that case and must be left unset.
        """
        name = str(name)
        if not name:
            raise DomainError("budget group name must be non-empty")
        if manager is None:
            manager = BudgetManager(capacity, analyst_budgets=analyst_budgets)
        elif analyst_budgets is not None:
            raise DomainError(
                f"budget group {name!r}: analyst_budgets= belongs to the "
                "supplied manager= and must not be passed alongside it"
            )
        with self._lock:
            if name in self._groups:
                raise DomainError(f"budget group {name!r} already exists")
            self._groups[name] = manager
        return manager

    def group(self, name: str) -> BudgetManager:
        """The shared :class:`BudgetManager` of group ``name``."""
        with self._lock:
            manager = self._groups.get(name)
            known = sorted(self._groups) if manager is None else None
        if manager is None:
            raise DomainError(
                f"no budget group named {name!r} (known groups: {known or 'none'})"
            )
        return manager

    def group_names(self) -> List[str]:
        with self._lock:
            return sorted(self._groups)

    def groups_json(self) -> Dict[str, Any]:
        """JSON-safe snapshot of every group: budget state plus member names."""
        with self._lock:
            groups = dict(self._groups)
            members: Dict[str, List[str]] = {name: [] for name in groups}
            for dataset in self._datasets.values():
                if dataset.group is not None:
                    members.setdefault(dataset.group, []).append(dataset.name)
        return {
            name: {"budget": manager.to_json(), "datasets": sorted(members[name])}
            for name, manager in groups.items()
        }

    # -- datasets ----------------------------------------------------------
    def register(
        self,
        name: str,
        data: Any,
        total_budget: Optional[float] = None,
        *,
        group: Optional[str] = None,
        analyst_budgets: Optional[Mapping[str, float]] = None,
        share: bool = False,
        kinds: Optional[Sequence[str]] = None,
        sketches: bool = True,
    ) -> RegisteredDataset:
        """Register ``data`` under ``name`` with a finite total privacy budget.

        Exactly one of ``total_budget`` (a private budget for this dataset)
        and ``group`` (membership in a joint budget group created with
        :meth:`create_group`) must be given.  ``share=True`` copies the data
        into shared memory once so engine-pool workers map the same pages
        instead of receiving pickled copies.  ``kinds`` restricts the dataset
        to an allowlist of registered estimator kinds (default: serve every
        registered kind); unknown names are rejected here so a config typo
        fails at boot, not at query time.

        ``sketches=True`` (the default) stores 1-D data as a
        :class:`~repro.dataview.DatasetView` and materialises, once, the
        union of the sketches declared (``EstimatorSpec.needs``) by the kinds
        this dataset serves; every cold query then reuses them, bit-for-bit
        identically to the sketch-free path.  With ``share=True`` the
        sketches are re-homed into shared segments alongside the data.  Pass
        ``sketches=False`` to store the bare array (no registration-time
        cost, per-query re-derivation — the pre-sketch behaviour).
        """
        name = str(name)
        if not name:
            raise DomainError("dataset name must be non-empty")
        allowed = _validated_kinds(name, kinds)
        if (total_budget is None) == (group is None):
            raise DomainError(
                f"dataset {name!r} needs exactly one of total_budget= (a private "
                "budget) or group= (a joint budget group)"
            )
        if group is not None:
            if analyst_budgets is not None:
                raise DomainError(
                    f"dataset {name!r}: analyst budgets of a joint group are set "
                    "at create_group time, not per member dataset"
                )
            manager = self.group(group)
        else:
            manager = BudgetManager(total_budget, analyst_budgets=analyst_budgets)
        array = np.asarray(data, dtype=float)
        if array.ndim not in (1, 2):
            raise DomainError(
                f"datasets must be 1-D or (n, d) 2-D, got shape {array.shape}"
            )
        if array.shape[0] < 1:
            raise InsufficientDataError(f"dataset {name!r} is empty")
        if not np.all(np.isfinite(array)):
            raise DomainError(f"dataset {name!r} contains non-finite values")
        stored: Any = SharedArray.from_array(array) if share else array
        if sketches and array.ndim == 1:
            needed = _declared_needs(allowed)
            view = DatasetView(stored).precompute(needed)
            if share and needed:
                # Re-home the sketches next to the data: pool workers attach
                # to the registration-time copies instead of re-sorting.
                view = share_view(view)
            stored = view
        dataset = RegisteredDataset(
            name=name, data=stored, budget=manager, group=group, kinds=allowed
        )
        with self._lock:
            if name in self._datasets:
                _release_storage(stored)
                raise DomainError(f"dataset {name!r} is already registered")
            self._datasets[name] = dataset
        return dataset

    def get(self, name: str) -> RegisteredDataset:
        with self._lock:
            dataset = self._datasets.get(name)
            registered = sorted(self._datasets) if dataset is None else None
        if dataset is None:
            raise UnknownDatasetError(
                f"no dataset named {name!r} is registered "
                f"(registered: {registered or 'none'})"
            )
        return dataset

    def set_draining(self, name: str, draining: bool = True) -> RegisteredDataset:
        """Flip a dataset's drain flag: stop admitting, keep serving cache hits.

        The first half of a safe decommission — drain, let in-flight and
        cached traffic settle, then :meth:`unregister` (the admin differ
        refuses to remove a dataset that was never drained).
        """
        dataset = self.get(name)
        dataset.draining = bool(draining)
        return dataset

    def update_kinds(
        self, name: str, kinds: Optional[Sequence[str]]
    ) -> RegisteredDataset:
        """Replace a dataset's ``kinds=`` allowlist (``None`` = every kind).

        Validated exactly like registration, so a reload naming an unknown
        kind is rejected before anything is applied.  Takes effect on the
        next admission; queries already past planning are unaffected.
        """
        dataset = self.get(name)
        dataset.kinds = _validated_kinds(name, kinds)
        return dataset

    def unregister(self, name: str) -> None:
        """Remove ``name`` and release its shared-memory segment, if any."""
        with self._lock:
            dataset = self._datasets.pop(name, None)
        if dataset is None:
            raise UnknownDatasetError(f"no dataset named {name!r} is registered")
        _release_storage(dataset.data)

    def names(self) -> List[str]:
        with self._lock:
            return sorted(self._datasets)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._datasets

    def __len__(self) -> int:
        with self._lock:
            return len(self._datasets)

    def __iter__(self) -> Iterator[RegisteredDataset]:
        with self._lock:
            snapshot = list(self._datasets.values())
        return iter(snapshot)

    def close(self) -> None:
        """Unlink every owned shared segment; the registry stays usable."""
        with self._lock:
            datasets, self._datasets = list(self._datasets.values()), {}
            self._groups = {}
        for dataset in datasets:
            _release_storage(dataset.data)

    def __enter__(self) -> "DatasetRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
