"""Pluggable persistent cache backends for resolved distances.

When each oracle call costs real money or minutes, the resolved-pair set is
an asset worth keeping across *processes*, not just across phases of one
run.  A :class:`CacheBackend` stores ``(i, j) -> distance`` under canonical
pair keys; :class:`repro.exec.BatchOracle` consults it before dispatching a
batch and writes every fresh resolution through to it.

Two backends ship:

* :class:`MemoryCacheBackend` — a plain dict; useful for tests and for
  sharing one in-process cache between several oracles.
* :class:`SqliteCacheBackend` — a single-file SQLite store (stdlib only),
  the "experiment checkpoint" backend: re-running an experiment against the
  same file resolves every previously paid pair for free.
"""

from __future__ import annotations

import os
import sqlite3
from typing import Dict, Iterable, Mapping, Tuple, Union

from repro.core.oracle import canonical_pair

Pair = Tuple[int, int]
PathLike = Union[str, os.PathLike]


class CacheBackend:
    """Interface every persistent distance cache implements.

    Keys are canonicalised internally, so callers may pass ``(j, i)``.
    """

    def get(self, i: int, j: int) -> float | None:
        """Return the stored distance for ``(i, j)`` or None."""
        raise NotImplementedError

    def get_many(self, pairs: Iterable[Pair]) -> Dict[Pair, float]:
        """Return the stored subset of ``pairs`` as a canonical-key dict."""
        out: Dict[Pair, float] = {}
        for i, j in pairs:
            value = self.get(i, j)
            if value is not None:
                out[canonical_pair(i, j)] = value
        return out

    def put(self, i: int, j: int, value: float) -> None:
        """Store one distance (overwrites silently — distances are stable)."""
        raise NotImplementedError

    def put_many(self, items: Mapping[Pair, float]) -> None:
        """Store many distances at once."""
        for (i, j), value in items.items():
            self.put(i, j, value)

    def __len__(self) -> int:
        raise NotImplementedError

    def items(self) -> Iterable[Tuple[Pair, float]]:
        """Iterate every stored ``((i, j), distance)``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any underlying resources (no-op by default)."""

    def __enter__(self) -> "CacheBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemoryCacheBackend(CacheBackend):
    """Dict-backed cache — shareable within a process, gone at exit."""

    def __init__(self) -> None:
        self._store: Dict[Pair, float] = {}

    def get(self, i: int, j: int) -> float | None:
        return self._store.get(canonical_pair(i, j))

    def put(self, i: int, j: int, value: float) -> None:
        self._store[canonical_pair(i, j)] = float(value)

    def __len__(self) -> int:
        return len(self._store)

    def items(self) -> Iterable[Tuple[Pair, float]]:
        return self._store.items()


class SqliteCacheBackend(CacheBackend):
    """Single-file SQLite cache: distances survive process restarts.

    The schema is one table ``distances(i, j, d)`` keyed on the canonical
    pair.  Writes are committed per :meth:`put`/:meth:`put_many` call; a
    batch of fresh resolutions lands in one transaction.

    Safe to share across processes: the ``sqlite3`` connection is opened
    lazily *per process* (a connection carried through ``fork`` or a
    pickle is unsafe to use from the child), and every connection sets a
    busy timeout so concurrent write-through from several processes waits on
    the file lock instead of raising ``database is locked``.
    """

    #: Seconds a connection waits on a locked database before raising.
    BUSY_TIMEOUT = 30.0

    def __init__(self, path: PathLike, *, busy_timeout: float | None = None) -> None:
        self._path = os.fspath(path)
        self._busy_timeout = self.BUSY_TIMEOUT if busy_timeout is None else busy_timeout
        self._conn: sqlite3.Connection | None = None
        self._conn_pid: int | None = None
        # Fail fast on an unusable path/file: open (and create the schema)
        # eagerly in the constructing process too.
        self._connection()

    @property
    def path(self) -> str:
        """Filesystem location of the cache database."""
        return self._path

    def _connection(self) -> sqlite3.Connection:
        """The calling process's connection, opened on first use.

        A connection inherited from another process (via ``fork`` or a
        pickled backend) is dropped without closing it — closing would
        tear down the parent's file locks from the child.
        """
        pid = os.getpid()
        if self._conn is None or self._conn_pid != pid:
            conn = sqlite3.connect(
                self._path, timeout=self._busy_timeout, check_same_thread=False
            )
            conn.execute(f"PRAGMA busy_timeout = {int(self._busy_timeout * 1000)}")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS distances ("
                "i INTEGER NOT NULL, j INTEGER NOT NULL, d REAL NOT NULL, "
                "PRIMARY KEY (i, j))"
            )
            conn.commit()
            self._conn = conn
            self._conn_pid = pid
        return self._conn

    def __getstate__(self):
        state = self.__dict__.copy()
        # Connections never cross process boundaries; the worker reopens.
        state["_conn"] = None
        state["_conn_pid"] = None
        return state

    def get(self, i: int, j: int) -> float | None:
        key = canonical_pair(i, j)
        row = self._connection().execute(
            "SELECT d FROM distances WHERE i = ? AND j = ?", key
        ).fetchone()
        return None if row is None else float(row[0])

    def get_many(self, pairs: Iterable[Pair]) -> Dict[Pair, float]:
        out: Dict[Pair, float] = {}
        for i, j in pairs:
            value = self.get(i, j)
            if value is not None:
                out[canonical_pair(i, j)] = value
        return out

    def put(self, i: int, j: int, value: float) -> None:
        key = canonical_pair(i, j)
        conn = self._connection()
        conn.execute(
            "INSERT OR REPLACE INTO distances (i, j, d) VALUES (?, ?, ?)",
            (key[0], key[1], float(value)),
        )
        conn.commit()

    def put_many(self, items: Mapping[Pair, float]) -> None:
        rows = [
            (*canonical_pair(i, j), float(value)) for (i, j), value in items.items()
        ]
        if not rows:
            return
        conn = self._connection()
        conn.executemany(
            "INSERT OR REPLACE INTO distances (i, j, d) VALUES (?, ?, ?)", rows
        )
        conn.commit()

    def __len__(self) -> int:
        row = self._connection().execute("SELECT COUNT(*) FROM distances").fetchone()
        return int(row[0])

    def items(self) -> Iterable[Tuple[Pair, float]]:
        for i, j, d in self._connection().execute("SELECT i, j, d FROM distances"):
            yield (int(i), int(j)), float(d)

    def close(self) -> None:
        if self._conn is not None and self._conn_pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._conn_pid = None


def open_cache(path: PathLike | None) -> CacheBackend | None:
    """Build a cache backend from a CLI-style path argument.

    ``None`` → no cache, ``":memory:"`` → :class:`MemoryCacheBackend`,
    anything else → :class:`SqliteCacheBackend` at that path.
    """
    if path is None:
        return None
    if os.fspath(path) == ":memory:":
        return MemoryCacheBackend()
    return SqliteCacheBackend(path)
