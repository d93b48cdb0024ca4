"""Asyncio ops front-end for a :class:`~repro.shard.fleet.ShardFleet`.

A deliberately small, dependency-free HTTP/1.1 surface (plain
``asyncio.start_server``, JSON bodies) exposing the fleet's control and
observability operations:

====== ==================== ===========================================
Method Path                 Semantics
====== ==================== ===========================================
GET    ``/healthz``         Liveness; ``200 ok`` / ``503 degraded``
GET    ``/stats``           Fleet + per-shard counters, latency summary
GET    ``/scores``          Latest per-session characterizations
GET    ``/metrics``         Prometheus text exposition of the default
                            :mod:`repro.obs` registry (``text/plain``)
GET    ``/spans``           Recent spans from the default tracer's ring
                            buffer, oldest first
POST   ``/sessions/open``   ``{session_id, shape, screen?}``
POST   ``/ingest``          ``{session_id, x, y, codes, t}``;
                            ``202`` accepted, ``429`` backpressure,
                            ``404`` unknown session
POST   ``/decision``        ``{session_id, row, col, confidence,
                            timestamp}``; ``202`` / ``429`` / ``404``
POST   ``/recharacterize``  ``{force?}`` → scores payload
POST   ``/checkpoint``      Checkpoint every shard; ``{saved}``
POST   ``/tick``            Advance the fleet's logical clock
====== ==================== ===========================================

Backpressure is **explicit end to end**: a full shard queue surfaces as
HTTP 429 with the shard's exact rejection counters in the body — the
client retries; nothing is silently dropped.  The fleet itself is
synchronous and single-owner; the server applies each request inline on
the event loop, which serializes all fleet mutations (the same
single-writer discipline the checkpoint layer assumes).
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional

import numpy as np

from repro import obs
from repro.shard.fleet import ShardDispatchError, ShardFleet
from repro.shard.worker import ShardDeadError

#: Hard cap on accepted request bodies (columns of a few thousand events).
MAX_BODY_BYTES = 8 * 1024 * 1024


class _PlainText(str):
    """Response payload served verbatim as ``text/plain`` (Prometheus)."""


def _jsonable(value):
    """Recursively convert numpy payloads into JSON-ready structures."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _scores_payload(scores) -> dict:
    return {
        "matcher_ids": list(scores.matcher_ids),
        "labels": scores.labels.tolist(),
        "probabilities": scores.probabilities.tolist(),
    }


class OpsServer:
    """Serve one fleet's ops surface on a local TCP port."""

    def __init__(self, fleet: ShardFleet, *, host: str = "127.0.0.1", port: int = 0):
        self.fleet = fleet
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> "OpsServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    @property
    def address(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # HTTP plumbing
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, path, body = request
                status, payload = self._route(method, path, body)
                await self._write_response(writer, status, payload)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            header_blob = await reader.readuntil(b"\r\n\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            return None
        head, *header_lines = header_blob.decode("latin-1").split("\r\n")
        parts = head.split()
        if len(parts) < 2:
            return None
        method, path = parts[0].upper(), parts[1]
        content_length = 0
        for line in header_lines:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return None
        if content_length > MAX_BODY_BYTES:
            return method, path, None  # routed to a 413 below
        body = b""
        if content_length:
            body = await reader.readexactly(content_length)
        return method, path, body

    async def _write_response(
        self, writer: asyncio.StreamWriter, status: int, payload: dict
    ) -> None:
        reasons = {200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
                   405: "Method Not Allowed", 413: "Payload Too Large",
                   429: "Too Many Requests", 503: "Service Unavailable"}
        if isinstance(payload, _PlainText):
            body = str(payload).encode()
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(_jsonable(payload)).encode()
            content_type = "application/json"
        writer.write(
            f"HTTP/1.1 {status} {reasons.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n".encode() + body
        )
        await writer.drain()

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def _route(self, method: str, path: str, body) -> tuple[int, dict]:
        if body is None:
            return 413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
        try:
            request = json.loads(body) if body else {}
        except (ValueError, RecursionError) as error:
            # JSONDecodeError and UnicodeDecodeError are ValueErrors;
            # RecursionError is a too deeply nested body.
            return 400, {"error": f"invalid JSON body: {error}"}
        if not isinstance(request, dict):
            return 400, {"error": "request body must be a JSON object"}
        try:
            return self._dispatch_route(method, path, request)
        except (KeyError, TypeError, ValueError, OverflowError) as error:
            # OverflowError: a float field of 1e400 parses to inf, and
            # ``int(inf)`` overflows.
            return 400, {"error": str(error)}
        except ShardDispatchError as error:
            return 503, {"error": str(error)}
        except ShardDeadError as error:
            return 503, {"error": str(error)}

    def _dispatch_route(self, method: str, path: str, request: dict) -> tuple[int, dict]:
        fleet = self.fleet
        if method == "GET":
            if path == "/healthz":
                health = fleet.healthz()
                return (200 if health["status"] == "ok" else 503), health
            if path == "/stats":
                return 200, fleet.stats()
            if path == "/scores":
                return 200, {
                    session_id: {
                        "labels": scores["labels"],
                        "probabilities": scores["probabilities"],
                    }
                    for session_id, scores in fleet.scores().items()
                }
            if path == "/metrics":
                return 200, _PlainText(obs.render_prometheus(obs.default_registry()))
            if path == "/spans":
                return 200, {
                    "spans": [record.to_dict() for record in obs.tracer().spans()]
                }
            return 404, {"error": f"unknown path {path}"}
        if method != "POST":
            return 405, {"error": f"unsupported method {method}"}
        if path == "/sessions/open":
            session = fleet.open(
                str(request["session_id"]),
                tuple(request["shape"]),
                screen=tuple(request["screen"]) if request.get("screen") else None,
            )
            return 200, {"session_id": session.session_id,
                         "shard": fleet.router.route(session.session_id)}
        if path == "/ingest":
            session_id = str(request["session_id"])
            if session_id not in fleet:
                return 404, {"error": f"unknown session {session_id!r}"}
            accepted = fleet.ingest_events(
                session_id,
                np.asarray(request["x"]),
                np.asarray(request["y"]),
                np.asarray(request["codes"]),
                np.asarray(request["t"], dtype=float),
            )
            return self._dispatch_status(session_id, accepted)
        if path == "/decision":
            session_id = str(request["session_id"])
            if session_id not in fleet:
                return 404, {"error": f"unknown session {session_id!r}"}
            accepted = fleet.add_decision(
                session_id,
                int(request["row"]),
                int(request["col"]),
                float(request["confidence"]),
                float(request["timestamp"]),
            )
            return self._dispatch_status(session_id, accepted)
        if path == "/recharacterize":
            scores = fleet.recharacterize(force=bool(request.get("force", False)))
            return 200, _scores_payload(scores)
        if path == "/checkpoint":
            return 200, {"saved": fleet.checkpoint_all()}
        if path == "/tick":
            return 200, {"clock": fleet.tick()}
        return 404, {"error": f"unknown path {path}"}

    def _dispatch_status(self, session_id: str, accepted: bool) -> tuple[int, dict]:
        shard = self.fleet.router.route(session_id)
        worker_stats = self.fleet.stats()["shards"][shard]
        payload = {
            "accepted": accepted,
            "shard": shard,
            "queue_depth": worker_stats["queue_depth"],
            "rejected_batches": worker_stats["rejected_batches"],
            "rejected_events": worker_stats["rejected_events"],
        }
        return (202 if accepted else 429), payload
