"""The JSON-lines request protocol of the proximity engine.

Each request is one JSON object on one line, each response one JSON object
on one line.  :class:`~repro.service.aserver.AsyncProximityServer` carries
the protocol over Unix sockets and TCP; :func:`handle_engine_request`
answers it and :func:`send_request` is the matching client.  Operations:

``{"op": "submit", "spec": {...}}``
    Build a :class:`~repro.service.jobs.JobSpec` from ``spec``, run it to
    completion, and return the serialised :class:`JobResult`.
``{"op": "stats"}``
    Return ``engine.snapshot_stats().to_dict()``.
``{"op": "metrics"}``
    Return the engine's metrics registry rendered in Prometheus text
    exposition format (the ``metrics`` field of the response).
``{"op": "snapshot", "path": "..."}``
    Write a warm-state snapshot (``path`` optional when the engine has a
    configured ``snapshot_path``).
``{"op": "ping"}``
    Liveness check.
``{"op": "mutate", "mutations": [{"kind": "insert", "payload": ...},
{"kind": "remove", "id": 3}, ...]}``
    Apply one atomic mutation batch (dynamic engines only); returns the
    :class:`~repro.dynamic.mutations.MutationResult` accounting.
    ``insert`` / ``remove`` also exist as single-mutation shorthand ops.
``{"op": "subscribe", "kind": "knn"|"knng", ...}``
    Register a standing query (``query``/``k`` for kNN, ``k`` for the
    kNN-graph); returns ``sub_id`` and the initial result.
``{"op": "deltas", "sub_id": 1, "since": 0}``
    Poll a subscription's entered/left/reordered deltas past a sequence
    cursor, plus its current registered result.  ``unsubscribe`` drops it.

The ``repro serve`` / ``repro submit`` CLI pair uses this protocol to
demonstrate a *persistent* engine whose partial distance graph keeps
compounding across independent client invocations, which is the whole
point of the service layer.
"""

from __future__ import annotations

import dataclasses
import json
import socket
from typing import Any, Dict, Optional, Tuple

from repro.dynamic import Mutation
from repro.service.engine import ProximityEngine
from repro.service.jobs import JobSpec


def jsonable(value: Any) -> Any:
    """Best-effort conversion of a query result to JSON-encodable data.

    Handles the shapes jobs actually return: dataclass results
    (``ClusteringResult``/``MstResult``/...), tuples/lists of numbers, and
    dicts keyed by pairs.  Anything else falls back to ``repr``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    return repr(value)


def result_to_dict(result) -> Dict[str, Any]:
    """Serialise a :class:`~repro.service.jobs.JobResult` for the wire."""
    return {
        "status": result.status.value,
        "value": jsonable(result.value),
        "unresolved": [list(pair) for pair in result.unresolved],
        "charged_calls": result.charged_calls,
        "warm_resolutions": result.warm_resolutions,
        "latency_seconds": result.latency_seconds,
        "error": result.error,
    }


def spec_from_dict(payload: Dict[str, Any]) -> JobSpec:
    """Build a :class:`JobSpec` from a request's ``spec`` object."""
    return JobSpec(
        kind=str(payload["kind"]),
        params=dict(payload.get("params", {})),
        priority=int(payload.get("priority", 0)),
        oracle_budget=payload.get("oracle_budget"),
        deadline=payload.get("deadline"),
        label=str(payload.get("label", "")),
        use_weak=bool(payload.get("use_weak", True)),
        stretch=float(payload.get("stretch", 1.0)),
    )


def mutation_from_dict(payload: Dict[str, Any]) -> Mutation:
    """Build a :class:`~repro.dynamic.mutations.Mutation` from wire JSON."""
    obj_id = payload.get("id", payload.get("obj_id"))
    return Mutation(
        kind=str(payload.get("kind", "")),
        payload=payload.get("payload"),
        obj_id=None if obj_id is None else int(obj_id),
    )


def handle_engine_request(engine: ProximityEngine, request: Dict[str, Any]) -> Dict[str, Any]:
    """Dispatch one protocol request against an engine.

    The transport-independent core of the op surface: the asyncio
    front-end (:mod:`repro.service.aserver`) and tests route through here.
    """
    op = request.get("op")
    if op == "ping":
        return {"ok": True, "op": "ping"}
    if op == "stats":
        return {"ok": True, "stats": engine.snapshot_stats().to_dict()}
    if op == "metrics":
        return {"ok": True, "metrics": engine.render_metrics()}
    if op == "snapshot":
        path = engine.snapshot(request.get("path"))
        return {"ok": True, "path": path}
    if op == "submit":
        spec = spec_from_dict(request.get("spec", {}))
        job = engine.submit(spec)
        result = job.result(request.get("timeout"))
        return {"ok": True, "job_id": job.id, "result": result_to_dict(result)}
    if op == "build_index":
        # Sugar over submit: build a navigable graph as a normal job.
        params = dict(request.get("params", {}))
        params.setdefault("graph", str(request.get("graph", "hnsw")))
        spec = spec_from_dict({"kind": "build_index", "params": params,
                               "label": request.get("label", "build-index")})
        job = engine.submit(spec)
        result = job.result(request.get("timeout"))
        return {"ok": True, "job_id": job.id, "result": result_to_dict(result)}
    if op == "indexes":
        return {"ok": True, "indexes": sorted(engine.indexes)}
    if op == "mutate":
        batch = [mutation_from_dict(m) for m in request.get("mutations", [])]
        outcome = engine.apply_mutations(batch)
        return {"ok": True, "result": outcome.to_dict()}
    if op == "insert":
        outcome = engine.apply_mutations(
            [Mutation(kind="insert", payload=request.get("payload"))]
        )
        return {"ok": True, "id": outcome.inserted_ids[0], "result": outcome.to_dict()}
    if op == "remove":
        outcome = engine.apply_mutations(
            [Mutation(kind="remove", obj_id=int(request["id"]))]
        )
        return {"ok": True, "result": outcome.to_dict()}
    if op == "subscribe":
        kind = str(request.get("kind", "knn"))
        if kind == "knn":
            sub = engine.subscribe_knn(int(request["query"]), int(request.get("k", 5)))
        elif kind == "knng":
            sub = engine.subscribe_knng(int(request.get("k", 5)))
        else:
            return {"ok": False, "error": f"unknown subscription kind {kind!r}"}
        return {
            "ok": True,
            "sub_id": sub.sub_id,
            "kind": sub.kind,
            "seq": sub.seq,
            "result": sub.result_dict(),
        }
    if op == "deltas":
        sub_id = int(request["sub_id"])
        deltas = engine.subscription_deltas(sub_id, int(request.get("since", 0)))
        sub = engine.subscriptions.get(sub_id)
        return {
            "ok": True,
            "sub_id": sub_id,
            "seq": sub.seq,
            "deltas": [d.to_dict() for d in deltas],
            "result": sub.result_dict(),
        }
    if op == "unsubscribe":
        engine.unsubscribe(int(request["sub_id"]))
        return {"ok": True, "sub_id": int(request["sub_id"])}
    return {"ok": False, "error": f"unknown op {op!r}"}


def parse_target(target: str) -> Tuple[str, Any]:
    """Classify a CLI-style server address.

    ``host:port`` (port all digits) → ``("tcp", (host, port))``; anything
    else → ``("unix", path)``.  A bare ``:port`` means localhost.  Paths
    containing ``/`` are never mistaken for TCP targets.
    """
    text = str(target)
    if "/" not in text and ":" in text:
        host, _, port = text.rpartition(":")
        if port.isdigit():
            return "tcp", (host or "127.0.0.1", int(port))
    return "unix", text


def send_request(
    target: str,
    request: Dict[str, Any],
    timeout: Optional[float] = 30.0,
) -> Dict[str, Any]:
    """One round-trip against a running proximity server.

    ``target`` is either a Unix-socket path or a ``host:port`` TCP address
    (see :func:`parse_target`) — the JSON-lines protocol is identical on
    both transports.
    """
    kind, address = parse_target(target)
    if kind == "tcp":
        client = socket.create_connection(address, timeout=timeout)
    else:
        client = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        client.settimeout(timeout)
        client.connect(str(address))
    with client:
        client.sendall((json.dumps(request) + "\n").encode("utf-8"))
        buffer = b""
        while not buffer.endswith(b"\n"):
            chunk = client.recv(65536)
            if not chunk:
                break
            buffer += chunk
    if not buffer:
        raise ConnectionError("server closed the connection without answering")
    return json.loads(buffer.decode("utf-8"))
