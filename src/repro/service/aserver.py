"""Asyncio front-end: one event loop, many slow jobs, two transports.

The server multiplexes every connection — Unix socket *and* TCP — onto a
single event loop: connections are cheap, and the expensive part (running a
job against the engine) is pushed onto a bounded worker pool so the loop
never blocks.  One :class:`~repro.service.engine.ProximityEngine` sits
behind it; overlapping slow oracle calls is the engine's job (its oracle
executor), not the front-end's.

The wire protocol is the JSON-lines one of :mod:`repro.service.server`,
answered one line per request by
:func:`~repro.service.server.handle_engine_request`.  The handler also
speaks just enough HTTP that ``curl http://host:port/metrics`` (or
``curl --unix-socket <sock> http://localhost/metrics``) scrapes the
Prometheus text: a request line starting with ``GET`` (or ``HEAD``) is
answered with an HTTP/1.0 response — ``/metrics`` serves the registry,
anything else a 404 — and the connection closes.

The event loop runs on a dedicated background thread, so synchronous code
(the CLI, tests) can start/stop the server without itself being async.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from repro.service.engine import ProximityEngine
from repro.service.server import handle_engine_request

#: Worker threads that execute engine requests off the event loop.
DEFAULT_DISPATCH_WORKERS = 8


class AsyncProximityServer:
    """Serve an engine over asyncio on Unix and/or TCP transports.

    Pass ``socket_path`` for a Unix listener, ``host``/``port`` for TCP, or
    both; ``port=0`` binds an ephemeral port (read it back from
    :attr:`port` after :meth:`start`).
    """

    def __init__(
        self,
        engine: ProximityEngine,
        *,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        dispatch_workers: int = DEFAULT_DISPATCH_WORKERS,
    ) -> None:
        if socket_path is None and port is None:
            raise ValueError("configure a Unix socket path, a TCP port, or both")
        self.engine = engine
        self.socket_path = None if socket_path is None else str(socket_path)
        self.host = host or "127.0.0.1"
        self.port = port
        self._dispatch = ThreadPoolExecutor(
            max_workers=dispatch_workers, thread_name_prefix="repro-aserve"
        )
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._servers: List[asyncio.base_events.Server] = []
        self._started = threading.Event()
        self._stopped = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- connection handling -------------------------------------------------

    async def _dispatch_request(self, request: Dict[str, Any]) -> Dict[str, Any]:
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._dispatch, handle_engine_request, self.engine, request
            )
        except Exception as exc:  # noqa: BLE001 - protocol errors answer, not crash
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    raw = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    return
                except asyncio.CancelledError:
                    return  # server shutting down with the connection open
                if not raw:
                    return
                line = raw.strip()
                if not line:
                    continue
                if line.startswith(b"GET ") or line.startswith(b"HEAD "):
                    await self._serve_http(reader, writer, line)
                    return  # HTTP/1.0 semantics: one request, then close
                try:
                    response = await self._dispatch_request(
                        json.loads(line.decode("utf-8"))
                    )
                except json.JSONDecodeError as exc:
                    response = {"ok": False, "error": f"JSONDecodeError: {exc}"}
                writer.write((json.dumps(response) + "\n").encode("utf-8"))
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (  # pragma: no cover
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                pass

    async def _serve_http(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request_line: bytes,
    ) -> None:
        parts = request_line.split()
        target = parts[1].decode("utf-8", "replace") if len(parts) > 1 else ""
        head_only = request_line.startswith(b"HEAD ")
        # Drain the request headers so the client never sees a reset.
        while True:
            header = await reader.readline()
            if not header or header in (b"\r\n", b"\n"):
                break
        path = target.split("?", 1)[0]
        if path == "/metrics":
            loop = asyncio.get_running_loop()
            text = await loop.run_in_executor(
                self._dispatch, self.engine.render_metrics
            )
            status = "200 OK"
            body = text.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            status = "404 Not Found"
            body = b"not found\n"
            content_type = "text/plain; charset=utf-8"
        head = (
            "HTTP/1.0 %s\r\n"
            "Content-Type: %s\r\n"
            "Content-Length: %d\r\n"
            "Connection: close\r\n"
            "\r\n" % (status, content_type, len(body))
        ).encode("ascii")
        writer.write(head if head_only else head + body)
        await writer.drain()

    # -- lifecycle -----------------------------------------------------------

    async def _start_servers(self) -> None:
        if self.socket_path is not None:
            self._servers.append(
                await asyncio.start_unix_server(
                    self._handle_connection, path=self.socket_path
                )
            )
        if self.port is not None:
            server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
            self._servers.append(server)
            # Ephemeral port: report what the OS actually bound.
            self.port = server.sockets[0].getsockname()[1]

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(self._start_servers())
        except BaseException as exc:  # noqa: BLE001 - surface bind errors
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            for server in self._servers:
                server.close()
                loop.run_until_complete(server.wait_closed())
            to_cancel = asyncio.all_tasks(loop)
            for task in to_cancel:
                task.cancel()
            if to_cancel:
                loop.run_until_complete(
                    asyncio.gather(*to_cancel, return_exceptions=True)
                )
            loop.close()

    def start(self) -> "AsyncProximityServer":
        """Bind the transports and serve on a background loop thread."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-aserve-loop", daemon=True
        )
        self._thread.start()
        self._started.wait()
        if self._startup_error is not None:
            self._thread.join()
            self._thread = None
            raise self._startup_error
        return self

    def serve_forever(self) -> None:
        """Block until :meth:`close` (for CLI use); starts if needed."""
        if self._thread is None:
            self.start()
        self._stopped.wait()

    def close(self) -> None:
        """Stop listeners, the loop thread, and the dispatch pool."""
        self._stopped.set()
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._dispatch.shutdown(wait=False, cancel_futures=True)
        if self.socket_path is not None:
            if os.path.exists(self.socket_path):
                os.unlink(self.socket_path)

    def __enter__(self) -> "AsyncProximityServer":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
