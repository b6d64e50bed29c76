"""Tamper-evident privacy audit trail: hash-chained JSONL, verify, spend replay.

Every privacy-relevant event the service takes — ``reserve``, ``commit``,
``cancel``, ``refuse``, zero-spend ``cache_hit``, ``rate_limit``, ``drain``,
``admin_reload``, ``dataset_add`` / ``dataset_remove`` — appends exactly one
JSON line to the :class:`AuditLog`.  Each record carries the SHA-256 of its
predecessor (``prev``) and of itself (``hash``), so the file is a hash
chain: flipping a single byte, dropping a line, or truncating the tail
breaks verification (:func:`verify_audit_log`, ``repro audit verify``).

The log is also *independently replayable*: :func:`replay_spend`
(``repro audit spend``) walks the verified chain and re-derives every
:class:`~repro.service.BudgetManager` ledger total — per budget owner, per
analyst, per kind — by mirroring the manager's exact commit semantics (a
commit charges the ledger only when the actually-measured spend is
``> 0.0``).  Under the CI serve-and-drive run the replayed totals must
match the live ``/datasets`` snapshot bit-for-bit; the audit trail is not
a summary of the ledger, it *is* the ledger, recomputable by anyone
holding the file.

Float fidelity: records are serialised with :func:`json.dumps`, whose
shortest-repr float encoding round-trips ``float`` values exactly — the
replayed sums accumulate the same IEEE-754 doubles the ledger did, in the
same order the commits were appended.

Resuming without re-verifying: an :class:`AuditLog` keeps a running
SHA-256 over every byte it has verified or written, and :meth:`AuditLog.close`
writes ``<log>.head`` = ``{size, seq, hash, sha256}``.  Opening the log
trusts that head only if it parses, ``size`` is at most the file's size, and
the SHA-256 of the file's first ``size`` bytes equals ``sha256``; the chain
then resumes from ``(seq, hash)`` and only the bytes after ``size`` (what a
writer that crashed before closing left behind) get the per-record checks.
Any other outcome verifies every record, with the same errors as
:func:`verify_audit_log`.  The head is thus a cached verification result
bound to the exact bytes: a flipped byte, a dropped line, truncation, a
garbage tail, a torn or corrupt head, or a head copied from another chain
all fall back to (and fail) the full check.  The one new trust assumption
is that a head forged to match altered bytes is believed — and forging one
is no harder than re-hashing the keyless chain itself, which the full check
already trusts.  ``repro audit verify`` and :func:`replay_spend` ignore the
head and always verify every record.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, IO, Iterator, Optional, Tuple, Union

from repro.exceptions import DomainError, ReproError

__all__ = [
    "AUDIT_EVENTS",
    "AuditChainError",
    "AuditLog",
    "AuditRecord",
    "replay_spend",
    "verify_audit_log",
]

#: The recognised event vocabulary.  Unknown events are rejected at record
#: time so a typo cannot silently open an un-replayable event class.
AUDIT_EVENTS = frozenset(
    {
        "reserve",
        "commit",
        "cancel",
        "refuse",
        "cache_hit",
        "rate_limit",
        "drain",
        "admin_reload",
        "dataset_add",
        "dataset_remove",
    }
)

#: ``prev`` of the first record: 64 zero hex chars (no predecessor).
GENESIS = "0" * 64

#: Keys the chain machinery owns; event payloads may not shadow them.
_RESERVED_KEYS = frozenset({"seq", "time", "event", "prev", "hash"})


class AuditChainError(ReproError):
    """The audit log failed verification (tampered, truncated, malformed)."""


def _chain_hash(record: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of ``record`` minus its ``hash`` field.

    Canonical form (sorted keys, minimal separators) makes the digest
    independent of dict insertion order; ``prev`` is inside the record, so
    each hash commits to the entire prefix of the log.
    """
    body = {key: value for key, value in record.items() if key != "hash"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class AuditRecord:
    """One verified audit record: chain position plus the event payload."""

    seq: int
    time: float
    event: str
    prev: str
    hash: str
    fields: Dict[str, Any]

    def to_json(self) -> Dict[str, Any]:
        document = dict(self.fields)
        document.update(
            seq=self.seq, time=self.time, event=self.event,
            prev=self.prev, hash=self.hash,
        )
        return document


@dataclass(frozen=True)
class _Head:
    """A sealed prefix: byte ``size``, last ``seq`` and ``hash``, its SHA-256."""

    size: int
    seq: int
    hash: str
    sha256: str


#: The empty prefix: where a log without a binding head is verified from.
_UNSEALED = _Head(0, 0, GENESIS, hashlib.sha256().hexdigest())


def _head_path(path: Path) -> Path:
    return path.with_name(path.name + ".head")


def _sealed_prefix(path: Path) -> Tuple[_Head, Any]:
    """The head that binds ``path`` and the SHA-256 state over its prefix.

    A head binds when ``<path>.head`` parses, its ``size`` fits the file,
    and the SHA-256 of the file's first ``size`` bytes equals its
    ``sha256``; without one, the prefix is empty (:data:`_UNSEALED`).
    """
    digest = hashlib.sha256()
    try:
        head = _Head(**json.loads(_head_path(path).read_text(encoding="utf-8")))
        counts_ok = all(type(n) is int and n >= 0 for n in (head.size, head.seq))
        if not counts_ok or not isinstance(head.hash, str):
            raise ValueError("malformed head")
        remaining = head.size
        with open(path, "rb") as handle:
            while remaining:
                chunk = handle.read(min(remaining, 1 << 20))
                if not chunk:
                    raise ValueError("head beyond the end of the log")
                digest.update(chunk)
                remaining -= len(chunk)
        if digest.hexdigest() == head.sha256:
            return head, digest
    except (OSError, ValueError, TypeError):
        pass
    return _UNSEALED, hashlib.sha256()


class AuditLog:
    """Append-only hash-chained JSONL writer (the service's audit sink).

    Opening an existing log *resumes* its chain, so a restarted server
    extends the same verifiable history.  A head that binds (see the module
    docstring) skips the records it seals; otherwise the file is verified in
    full.  ``record`` is thread-safe under one lock; each line is flushed as
    written, so the file is valid JSONL after every event (readers may tail
    it live).
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        clock: Callable[[], float] = time.time,
    ):
        self._path = Path(path)
        self._clock = clock
        self._lock = threading.Lock()
        self._seq = 0
        self._prev = GENESIS
        self._digest = hashlib.sha256()
        if self._path.exists() and self._path.stat().st_size:
            head, self._digest = _sealed_prefix(self._path)
            self._seq, self._prev = head.seq, head.hash
            for record in _verified_records(
                self._path, after=head, digest=self._digest
            ):
                self._seq = record.seq
                self._prev = record.hash
        self._handle: Optional[IO[bytes]] = open(self._path, "ab")
        self._size = self._handle.tell()

    @property
    def path(self) -> Path:
        return self._path

    def record(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the written record (with its hash)."""
        if event not in AUDIT_EVENTS:
            raise DomainError(
                f"unknown audit event {event!r}; known: {sorted(AUDIT_EVENTS)}"
            )
        if _RESERVED_KEYS & set(fields):
            clash = sorted(_RESERVED_KEYS & set(fields))
            raise DomainError(f"audit fields shadow reserved keys: {clash}")
        with self._lock:
            if self._handle is None:
                raise DomainError(f"audit log {self._path} is closed")
            record: Dict[str, Any] = dict(fields)
            self._seq += 1
            record["seq"] = self._seq
            record["time"] = self._clock()
            record["event"] = event
            record["prev"] = self._prev
            record["hash"] = _chain_hash(record)
            self._prev = record["hash"]
            line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            data = line.encode("utf-8")
            self._handle.write(data)
            self._handle.flush()
            self._digest.update(data)
            self._size += len(data)
            return record

    def stats(self) -> Dict[str, Any]:
        """JSON-safe counters for ``stats()`` / ``/admin/state``."""
        with self._lock:
            return {
                "path": str(self._path),
                "records": self._seq,
                "open": self._handle is not None,
            }

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
                self._seal()

    def _seal(self) -> None:
        """Write the head that lets the next open skip what is verified.

        A plain write: a torn head fails the digest check and costs the next
        open one full verification, as does a head that cannot be written.
        Caller must hold self._lock.
        """
        head = _Head(self._size, self._seq, self._prev, self._digest.hexdigest())
        try:
            _head_path(self._path).write_text(
                json.dumps(asdict(head), sort_keys=True) + "\n", encoding="utf-8"
            )
        except OSError:
            pass

    def __enter__(self) -> "AuditLog":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def _verified_records(
    path: Union[str, Path],
    *,
    after: _Head = _UNSEALED,
    digest: Any = None,
) -> Iterator[AuditRecord]:
    """Yield records while verifying the chain; raise :class:`AuditChainError`.

    One streaming pass checks, per line: valid JSON object, contiguous
    ``seq`` starting at 1, ``prev`` equal to the predecessor's hash (the
    genesis sentinel first), and the stored ``hash`` equal to the recomputed
    one.  Any deviation names the offending line.  ``after`` starts the pass
    at the end of a sealed prefix (which holds ``after.seq`` lines);
    ``digest`` is fed every byte read.
    """
    path = Path(path)
    prev = after.hash
    expected_seq = after.seq + 1
    with open(path, "rb") as handle:
        handle.seek(after.size)
        for line_number, raw in enumerate(handle, start=expected_seq):
            if digest is not None:
                digest.update(raw)
            line = raw.strip()
            if not line:
                raise AuditChainError(f"{path}:{line_number}: blank line in audit log")
            try:
                record = json.loads(line.decode("utf-8"))
            except ValueError as exc:
                raise AuditChainError(
                    f"{path}:{line_number}: unparseable record ({exc})"
                ) from None
            if not isinstance(record, dict) or not _RESERVED_KEYS <= set(record):
                raise AuditChainError(
                    f"{path}:{line_number}: record missing chain fields"
                )
            if record["seq"] != expected_seq:
                raise AuditChainError(
                    f"{path}:{line_number}: sequence break "
                    f"(got seq={record['seq']!r}, expected {expected_seq})"
                )
            if record["prev"] != prev:
                raise AuditChainError(
                    f"{path}:{line_number}: chain break "
                    f"(prev={record['prev']!r} does not match predecessor hash)"
                )
            recomputed = _chain_hash(record)
            if record["hash"] != recomputed:
                raise AuditChainError(
                    f"{path}:{line_number}: record tampered "
                    f"(stored hash {record['hash']!r} != recomputed {recomputed!r})"
                )
            prev = record["hash"]
            expected_seq += 1
            fields = {
                key: value for key, value in record.items()
                if key not in _RESERVED_KEYS
            }
            yield AuditRecord(
                seq=record["seq"],
                time=record["time"],
                event=record["event"],
                prev=record["prev"],
                hash=record["hash"],
                fields=fields,
            )


def verify_audit_log(path: Union[str, Path]) -> Tuple[int, str]:
    """Verify the whole chain; returns ``(record_count, final_hash)``.

    Raises :class:`AuditChainError` on the first broken link.  An empty or
    absent log verifies trivially as ``(0, GENESIS)``.
    """
    path = Path(path)
    if not path.exists() or not path.stat().st_size:
        return 0, GENESIS
    count, final = 0, GENESIS
    for record in _verified_records(path):
        count, final = record.seq, record.hash
    return count, final


def replay_spend(path: Union[str, Path]) -> Dict[str, Any]:
    """Re-derive every ledger total from the (verified) audit log.

    Mirrors :meth:`BudgetManager.commit` exactly: only ``commit`` events
    with ``epsilon > 0.0`` charge anything, accumulated per budget owner
    (``dataset:<name>`` for private budgets, ``group:<name>`` for joint
    groups), per analyst within the owner, and per estimator kind
    service-wide — in record order, with plain float addition, so the sums
    reproduce the :class:`~repro.service.BudgetManager` ledgers and the
    service's per-kind spend counters bit-for-bit.
    """
    path = Path(path)
    owners: Dict[str, Dict[str, Any]] = {}
    kinds: Dict[str, float] = {}
    events: Dict[str, int] = {}
    count = 0
    if path.exists() and path.stat().st_size:
        for record in _verified_records(path):
            count = record.seq
            events[record.event] = events.get(record.event, 0) + 1
            if record.event != "commit":
                continue
            epsilon = record.fields.get("epsilon", 0.0)
            if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)):
                continue
            epsilon = float(epsilon)
            if not epsilon > 0.0:
                continue
            owner = str(record.fields.get("budget", ""))
            entry = owners.setdefault(owner, {"spent": 0.0, "analysts": {}})
            entry["spent"] += epsilon
            analyst = record.fields.get("analyst")
            if analyst is not None:
                analysts = entry["analysts"]
                analysts[str(analyst)] = analysts.get(str(analyst), 0.0) + epsilon
            kind = record.fields.get("kind")
            if kind is not None:
                kinds[str(kind)] = kinds.get(str(kind), 0.0) + epsilon
    return {
        "path": str(path),
        "records": count,
        "events": dict(sorted(events.items())),
        "owners": {name: owners[name] for name in sorted(owners)},
        "kinds": {name: kinds[name] for name in sorted(kinds)},
    }
