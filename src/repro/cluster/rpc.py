"""Line-delimited-JSON RPC framing and client for the budget coordinator.

One request per line, one response per line, UTF-8 JSON objects::

    -> {"id": 7, "op": "reserve", "owner": "group:pilot", "amount": 0.5}
    <- {"id": 7, "ok": true, "token": 12, "amount": 0.5, "remaining": 1.5}

Failures come back as ``{"id": 7, "ok": false, "error": "<code>",
"message": "..."}`` (a refused ``reserve`` adds the owner's ``remaining``).
The client maps the ``budget_exceeded`` code onto
:class:`~repro.exceptions.BudgetExceededError` so a remote refusal is
indistinguishable from a local one, and every other protocol error onto
:class:`~repro.exceptions.DomainError`.  Transport failures raise
:class:`~repro.exceptions.CoordinatorUnavailableError`.

This module is pure stdlib and imports nothing from ``repro.service`` —
the service layer lazily imports the client, never the reverse.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any, Dict, Optional

from repro.exceptions import (
    BudgetExceededError,
    CoordinatorUnavailableError,
    DomainError,
)

__all__ = ["CoordinatorClient", "encode_line", "decode_line"]

#: Ops safe to replay if the connection dies after the request was sent:
#: they either read state or set it to an absolute value.  ``reserve`` /
#: ``commit`` / ``cancel`` are *not* here — replaying one after a lost
#: response could apply it twice, so those surface the ambiguity as
#: ``CoordinatorUnavailableError`` instead.
_IDEMPOTENT_OPS = frozenset(
    {"ping", "snapshot", "stats", "create", "analyst_remaining", "rotate"}
)

_TRANSPORT_ERRORS = (OSError, EOFError)


def encode_line(document: Dict[str, Any]) -> bytes:
    """Serialise one protocol message to its wire line."""
    return json.dumps(document, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one wire line; raises ``ValueError`` on malformed input."""
    document = json.loads(line.decode("utf-8"))
    if not isinstance(document, dict):
        raise ValueError("protocol messages must be JSON objects")
    return document


class CoordinatorClient:
    """Thread-safe client for one coordinator endpoint.

    A single keep-alive socket is shared under a lock — the coordinator
    round-trip is a handful of microseconds on loopback, and the shard
    executor already serialises admission under its coalesce lock, so one
    connection per shard process is the honest concurrency level.
    """

    def __init__(self, host: str, port: int, *, timeout: float = 5.0) -> None:
        self._address = (host, int(port))
        self._timeout = float(timeout)
        self._lock = threading.Lock()
        self._sock: Optional[socket.socket] = None
        self._reader = None
        self._next_id = 0
        self._sent = False

    # -- connection management ---------------------------------------------
    @property
    def endpoint(self) -> str:
        return f"{self._address[0]}:{self._address[1]}"

    def _connect(self) -> None:
        """Open the keep-alive socket.  Caller must hold ``self._lock``."""
        sock = socket.create_connection(self._address, timeout=self._timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._reader = sock.makefile("rb")

    def _teardown(self) -> None:
        """Drop the socket, if any.  Caller must hold ``self._lock``."""
        for closable in (self._reader, self._sock):
            if closable is not None:
                try:
                    closable.close()
                except OSError:
                    pass
        self._sock = None
        self._reader = None

    def close(self) -> None:
        with self._lock:
            self._teardown()

    # -- calls --------------------------------------------------------------
    def call(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Perform one RPC, returning the response document on success."""
        with self._lock:
            self._next_id += 1
            request = {"id": self._next_id, "op": op, **fields}
            try:
                response = self._exchange(request)
            except _TRANSPORT_ERRORS:
                # One reconnect: a stale keep-alive socket (coordinator
                # restarted, idle timeout) is routine.  A failure *before*
                # the request line was fully sent cannot have been applied,
                # so any op may replay then; after a complete send only
                # idempotent ops may — replaying a reserve/commit whose
                # response was lost could apply it twice.
                self._teardown()
                if op not in _IDEMPOTENT_OPS and self._sent:
                    raise CoordinatorUnavailableError(
                        f"coordinator at {self.endpoint} dropped the "
                        f"connection mid-{op}; the op was not retried because "
                        "its effect may already have been applied"
                    ) from None
                try:
                    response = self._exchange(request)
                except _TRANSPORT_ERRORS as exc:
                    self._teardown()
                    raise CoordinatorUnavailableError(
                        f"coordinator at {self.endpoint} is unreachable: {exc}"
                    ) from None
        return self._unwrap(op, response)

    def _exchange(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """One send/receive round-trip.  Caller must hold ``self._lock``."""
        self._sent = False
        if self._sock is None:
            self._connect()
        assert self._sock is not None and self._reader is not None
        self._sock.sendall(encode_line(request))
        self._sent = True
        line = self._reader.readline()
        if not line:
            raise EOFError("coordinator closed the connection")
        try:
            response = decode_line(line)
        except ValueError as exc:
            raise EOFError(f"malformed coordinator response: {exc}") from None
        if response.get("id") != request["id"]:
            raise EOFError(
                f"coordinator answered request {response.get('id')!r} "
                f"out of order (expected {request['id']})"
            )
        return response

    @staticmethod
    def _unwrap(op: str, response: Dict[str, Any]) -> Dict[str, Any]:
        if response.get("ok"):
            return response
        code = response.get("error", "protocol_error")
        message = response.get("message", f"coordinator rejected op {op!r}")
        if code == "budget_exceeded":
            raise BudgetExceededError(message, remaining=response.get("remaining"))
        raise DomainError(f"coordinator refused {op!r} ({code}): {message}")

    # -- convenience wrappers ----------------------------------------------
    def ping(self) -> bool:
        return bool(self.call("ping").get("pong"))
