"""The cluster budget coordinator: one process owning every joint ledger.

A joint budget group spans shards, so its reserve→commit protocol must be
atomic *cluster-wide*.  The coordinator achieves that the same way
:class:`~repro.service.registry.BudgetManager` does within one process —
by being the single owner of the ledger — and exposes exactly the
registry's group semantics (``reserve`` / ``commit`` / ``cancel`` plus
the introspection calls the admin and metrics surfaces need) over the
line-delimited-JSON RPC framing of :mod:`repro.cluster.rpc`.  Shards talk to it through
:class:`~repro.service.registry.RemoteBudgetManager`; datasets with a
private (shard-local) budget never appear here at all.

Owner registration is idempotent: every shard boots with the same serving
config and issues ``create`` for each group it knows; the first call
creates the manager, later calls merely verify that capacity and analyst
caps agree (a mismatch means the shards are running different configs —
refused loudly rather than silently double-booked).

This module is the **only** place in ``repro.cluster`` allowed to
construct or mutate a ``BudgetManager`` — lint rule REP008 enforces that
the router/compose layer can reach a ledger exclusively through the RPC
client.
"""

from __future__ import annotations

import argparse
import json
import signal
import socketserver
import sys
import threading
from typing import Any, Dict, Optional, Tuple

from repro.cluster.rpc import decode_line, encode_line
from repro.exceptions import BudgetExceededError, ReproError
from repro.service.registry import BudgetManager, Reservation

__all__ = [
    "BudgetCoordinator",
    "CoordinatorServer",
    "make_coordinator_server",
    "main",
]


class BudgetCoordinator:
    """Dict-in/dict-out RPC core (transport-free, directly testable).

    One lock serialises every op: the coordinator *is* the cluster's
    admission point, and each op is a few dict operations on a
    :class:`BudgetManager`, so a single mutex is both correct and fast
    (the socket round-trip dominates by orders of magnitude).
    """

    def __init__(self) -> None:
        self._owners: Dict[str, BudgetManager] = {}
        self._analyst_caps: Dict[str, Dict[str, float]] = {}
        self._reservations: Dict[int, Tuple[str, Reservation]] = {}
        self._next_token = 0
        self._lock = threading.Lock()
        self._ops = {
            "ping": self._ping,
            "create": self._create,
            "reserve": self.reserve,
            "commit": self._commit,
            "cancel": self._cancel,
            "snapshot": self._snapshot,
            "analyst_remaining": self._analyst_remaining,
            "rotate": self._rotate,
            "stats": self._stats,
        }

    # -- dispatch -----------------------------------------------------------
    def handle(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Answer one protocol request; never raises."""
        request_id = request.get("id") if isinstance(request, dict) else None
        try:
            if not isinstance(request, dict):
                raise ValueError("requests must be JSON objects")
            op = request.get("op")
            handler = self._ops.get(op)
            if handler is None:
                raise ValueError(f"unknown op {op!r} (known: {sorted(self._ops)})")
            with self._lock:
                response = handler(request)
        except BudgetExceededError as exc:
            response = {"ok": False, "error": "budget_exceeded", "message": str(exc)}
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            response = {"ok": False, "error": "domain", "message": str(exc)}
        response.setdefault("ok", True)
        response["id"] = request_id
        return response

    def _manager(self, request: Dict[str, Any]) -> Tuple[str, BudgetManager]:
        """Resolve ``request["owner"]``.  Caller must hold ``self._lock``."""
        owner = str(request.get("owner") or "")
        manager = self._owners.get(owner)
        if manager is None:
            raise ValueError(
                f"unknown budget owner {owner!r} "
                f"(registered: {sorted(self._owners) or 'none'})"
            )
        return owner, manager

    # -- ops (caller must hold self._lock; handle() takes it) ---------------
    def _ping(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Liveness probe.  Caller must hold ``self._lock``."""
        return {"pong": True, "owners": len(self._owners)}

    def _create(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Idempotently register an owner.  Caller must hold ``self._lock``.

        The first shard to boot creates the ledger; every later shard's
        ``create`` must agree on capacity and analyst caps bit-for-bit —
        the only way they differ is a config skew that would corrupt the
        joint accounting.
        """
        owner = str(request.get("owner") or "")
        if not owner:
            raise ValueError("create needs a non-empty owner")
        capacity = float(request["capacity"])
        caps_field = request.get("analyst_budgets") or {}
        analyst_caps = {str(name): float(cap) for name, cap in caps_field.items()}
        existing = self._owners.get(owner)
        if existing is None:
            self._owners[owner] = BudgetManager(
                capacity, analyst_budgets=analyst_caps or None
            )
            self._analyst_caps[owner] = analyst_caps
            return {"created": True, "capacity": capacity}
        if existing.capacity != capacity or self._analyst_caps[owner] != analyst_caps:
            raise ValueError(
                f"owner {owner!r} already registered with capacity "
                f"{existing.capacity!r} and analyst caps "
                f"{self._analyst_caps[owner]!r}; refusing a conflicting create "
                f"(capacity {capacity!r}, caps {analyst_caps!r}) — are the "
                "shards running the same serving config?"
            )
        return {"created": False, "capacity": capacity}

    def reserve(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Admit or refuse a claim.  Caller must hold ``self._lock``.

        The returned token stands in for the :class:`Reservation` on the
        wire; the coordinator keeps the real object until ``commit`` or
        ``cancel`` settles it (ownership transfers to the caller, who must
        send exactly one of the two back).
        """
        owner, manager = self._manager(request)
        reservation = manager.reserve(
            float(request["amount"]), analyst=_analyst(request)
        )
        self._next_token += 1
        token = self._next_token
        self._reservations[token] = (owner, reservation)
        return {"token": token, "amount": reservation.amount}

    def _settle(self, request: Dict[str, Any]) -> Tuple[str, BudgetManager, Reservation]:
        """Pop the reservation behind a token.  Caller must hold ``self._lock``."""
        token = request.get("token")
        entry = self._reservations.pop(token, None)
        if entry is None:
            raise ValueError(
                f"unknown reservation token {token!r} (already settled, or "
                "issued by a previous coordinator incarnation)"
            )
        owner, reservation = entry
        return owner, self._owners[owner], reservation

    def _commit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Settle a reservation with its measured spend.  Caller must hold ``self._lock``."""
        owner, manager, reservation = self._settle(request)
        charged, remaining = manager.commit(
            reservation, float(request["actual"]), label=str(request.get("label", ""))
        )
        return {"charged": charged, "remaining": remaining}

    def _cancel(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Release a reservation unspent.  Caller must hold ``self._lock``."""
        owner, manager, reservation = self._settle(request)
        manager.cancel(reservation)
        return {"remaining": manager.remaining}

    def _snapshot(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Budget state for one owner.  Caller must hold ``self._lock``."""
        _, manager = self._manager(request)
        return {"budget": manager.to_json()}

    def _analyst_remaining(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Per-analyst headroom for one owner.  Caller must hold ``self._lock``."""
        _, manager = self._manager(request)
        analyst = _analyst(request)
        if analyst is None:
            raise ValueError("analyst_remaining needs an analyst")
        return {"remaining": manager.analyst_remaining(analyst)}

    def _rotate(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Replace an owner's analyst caps.  Caller must hold ``self._lock``."""
        owner, manager = self._manager(request)
        caps_field = request.get("analyst_budgets") or {}
        analyst_caps = {str(name): float(cap) for name, cap in caps_field.items()}
        manager.rotate_analyst_budgets(analyst_caps or None)
        self._analyst_caps[owner] = analyst_caps
        return {"analysts": sorted(analyst_caps)}

    def _stats(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """Every owner's ledger snapshot.  Caller must hold ``self._lock``."""
        return {
            "owners": {name: manager.to_json() for name, manager in self._owners.items()},
            "outstanding_reservations": len(self._reservations),
        }


def _analyst(request: Dict[str, Any]) -> Optional[str]:
    analyst = request.get("analyst")
    return None if analyst is None else str(analyst)


# ---------------------------------------------------------------------------
# TCP server
# ---------------------------------------------------------------------------
class _Handler(socketserver.StreamRequestHandler):
    """One connection: read request lines until EOF, answer each in turn."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        coordinator = self.server.coordinator  # type: ignore[attr-defined]
        while True:
            try:
                line = self.rfile.readline()
            except OSError:
                return
            if not line:
                return
            if not line.strip():
                continue
            try:
                request = decode_line(line)
            except ValueError as exc:
                response = {
                    "id": None,
                    "ok": False,
                    "error": "bad_request",
                    "message": f"malformed request line: {exc}",
                }
            else:
                response = coordinator.handle(request)
            try:
                self.wfile.write(encode_line(response))
                self.wfile.flush()
            except OSError:
                return


class CoordinatorServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], coordinator: BudgetCoordinator):
        super().__init__(address, _Handler)
        self.coordinator = coordinator


def make_coordinator_server(
    host: str = "127.0.0.1", port: int = 0
) -> CoordinatorServer:
    """Bind a coordinator server (``port=0`` → ephemeral); caller serves it."""
    return CoordinatorServer((host, port), BudgetCoordinator())


def serve_in_thread(server: CoordinatorServer) -> threading.Thread:
    """Run ``server`` on a daemon thread (tests and in-process clusters)."""
    thread = threading.Thread(
        target=server.serve_forever,
        kwargs={"poll_interval": 0.05},
        name="repro-coordinator",
        daemon=True,
    )
    thread.start()
    return thread


def main(argv: Optional[list] = None) -> int:
    """``python -m repro.cluster.coordinator`` — run a coordinator process."""
    parser = argparse.ArgumentParser(
        prog="repro-coordinator",
        description="Budget coordinator for a repro.cluster deployment.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the readiness line"
    )
    args = parser.parse_args(argv)
    server = make_coordinator_server(args.host, args.port)
    host, port = server.server_address[:2]
    if not args.quiet:
        print(
            json.dumps(
                {"event": "listening", "component": "coordinator", "host": host, "port": port}
            ),
            flush=True,
        )

    def _terminate(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
