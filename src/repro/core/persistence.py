"""Persistence for resolved distances.

When each oracle call costs real money or minutes, the resolved-edge set is
an asset worth keeping across sessions.  These helpers round-trip a
:class:`PartialDistanceGraph` through a compressed ``.npz`` archive, and can
pre-seed a :class:`DistanceOracle`'s cache so a resumed run never re-pays
for a distance it already bought.

Archive format: besides the edge arrays, a v2 archive carries the graph's
edge-insert epoch counters (global epoch plus per-node epochs — redundant
with the edge set, stored as an integrity check) and an optional JSON
metadata dict.  The service engine puts a dataset fingerprint and the
oracle name there, so a restarted engine can refuse a snapshot written for
different data (:class:`~repro.core.exceptions.SnapshotMismatchError`).
Version-1 archives (edges only) still load; they surface an empty metadata
dict.

A *mutated* graph (one that has seen ``remove_node``/``grow``/``revive``)
is written as version 3: the alive mask and the true stored epoch counters
ride along, and :func:`load_archive` replays the edges then reinstalls the
mutation state via ``restore_mutation_state`` — so tombstoned ids and the
monotone epochs survive a snapshot/restore cycle exactly.  Never-mutated
graphs keep emitting v2 archives, byte-compatible with older readers.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

import numpy as np

from repro.core.oracle import DistanceOracle
from repro.core.partial_graph import PartialDistanceGraph

PathLike = Union[str, os.PathLike]

_FORMAT_VERSION = 2

#: Format version used for graphs carrying mutation state (tombstones).
_MUTATED_FORMAT_VERSION = 3

#: Archive versions this module can read.
_SUPPORTED_VERSIONS = (1, 2, 3)


@dataclass
class GraphArchive:
    """A loaded snapshot: the graph plus everything stored alongside it."""

    graph: PartialDistanceGraph
    version: int
    #: Global edge-insert epoch recorded at save time (== num_edges for
    #: append-only v1/v2 archives; the true monotone counter for v3).
    epoch: int
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def fingerprint(self) -> Optional[str]:
        """The dataset fingerprint stored by the writer, if any."""
        value = self.metadata.get("fingerprint")
        return None if value is None else str(value)


@dataclass
class ColumnSet:
    """Raw edge columns of an archive, before any graph is rebuilt.

    The columnar twin of :class:`GraphArchive`: :func:`load_columns`
    validates archives in this form (no per-edge Python objects), and
    :func:`load_archive` layers the full replay-into-a-graph validation on
    top.
    """

    n: int
    i: np.ndarray
    j: np.ndarray
    w: np.ndarray
    version: int
    epoch: int
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: v3 only: per-slot alive mask (None for append-only archives).
    alive: Optional[np.ndarray] = None
    #: v3 only: stored per-node epoch counters (None for v1/v2, where they
    #: are redundant with the edge set).
    node_epochs: Optional[np.ndarray] = None


def save_columns(
    path: PathLike,
    n: int,
    i: np.ndarray,
    j: np.ndarray,
    w: np.ndarray,
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write raw edge columns as a v2 archive.

    The per-node epoch counters are derived from the columns (node epoch ==
    known degree), so two writers holding the same edge set in the same
    order emit identical archives.  ``metadata`` must be JSON-serialisable.
    """
    i_arr = np.asarray(i, dtype=np.int64)
    j_arr = np.asarray(j, dtype=np.int64)
    w_arr = np.asarray(w, dtype=np.float64)
    node_epochs = np.bincount(i_arr, minlength=n) + np.bincount(j_arr, minlength=n)
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        n=np.int64(n),
        i=i_arr,
        j=j_arr,
        w=w_arr,
        epoch=np.int64(len(i_arr)),
        node_epochs=node_epochs.astype(np.int64),
        metadata=np.array(json.dumps(metadata or {})),
    )


def save_graph(
    graph: PartialDistanceGraph,
    path: PathLike,
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a partial graph's resolved edges to a compressed ``.npz``.

    ``metadata`` must be JSON-serialisable; the service engine stores a
    dataset fingerprint and oracle name there so :func:`load_archive` (and
    ``Engine.restore``) can detect snapshots from a different dataset.
    A mutated graph (tombstones, or epoch ahead of the edge count) is
    written as a v3 archive that carries the alive mask and true epochs.
    """
    i_arr, j_arr, w_arr = graph.edge_arrays()
    if graph.mutated:
        np.savez_compressed(
            path,
            version=np.int64(_MUTATED_FORMAT_VERSION),
            n=np.int64(graph.n),
            i=np.asarray(i_arr, dtype=np.int64),
            j=np.asarray(j_arr, dtype=np.int64),
            w=np.asarray(w_arr, dtype=np.float64),
            epoch=np.int64(graph.epoch),
            node_epochs=np.array(
                [graph.node_epoch(u) for u in range(graph.n)], dtype=np.int64
            ),
            alive=np.array(
                [graph.is_alive(u) for u in range(graph.n)], dtype=np.bool_
            ),
            metadata=np.array(json.dumps(metadata or {})),
        )
        return
    save_columns(path, graph.n, i_arr, j_arr, w_arr, metadata=metadata)


def load_columns(path: PathLike) -> ColumnSet:
    """Load an archive's raw edge columns with columnar integrity checks.

    Validates without rebuilding a Python graph: ids in range and off the
    diagonal, non-negative weights, no duplicate pairs, and (v2) the stored
    epoch counters consistent with the columns.  :func:`load_archive` runs
    the stricter replay path on top of this.
    """
    with np.load(path) as data:
        version = int(data["version"])
        if version not in _SUPPORTED_VERSIONS:
            raise ValueError(
                f"unsupported graph archive version {version}; "
                f"this build reads versions {_SUPPORTED_VERSIONS}"
            )
        n = int(data["n"])
        i_arr = np.asarray(data["i"], dtype=np.int64)
        j_arr = np.asarray(data["j"], dtype=np.int64)
        w_arr = np.asarray(data["w"], dtype=np.float64)
        alive = None
        if version == 1:
            epoch = len(i_arr)
            node_epochs = None
            metadata: Dict[str, Any] = {}
        else:
            epoch = int(data["epoch"])
            node_epochs = np.asarray(data["node_epochs"], dtype=np.int64)
            metadata = json.loads(str(data["metadata"]))
            if version >= 3:
                alive = np.asarray(data["alive"], dtype=np.bool_)
    if len(i_arr) != len(j_arr) or len(i_arr) != len(w_arr):
        raise ValueError("corrupt archive: edge columns disagree in length")
    if len(i_arr):
        if i_arr.min() < 0 or j_arr.min() < 0 or max(i_arr.max(), j_arr.max()) >= n:
            raise ValueError("corrupt archive: edge ids out of range")
        if np.any(i_arr == j_arr):
            raise ValueError("corrupt archive: self-edge in the columns")
        if w_arr.min() < 0:
            raise ValueError("corrupt archive: negative distance in the columns")
        keys = np.minimum(i_arr, j_arr) * n + np.maximum(i_arr, j_arr)
        if len(np.unique(keys)) != len(keys):
            raise ValueError("corrupt archive: duplicate edges in the columns")
    if version < 3:
        if epoch != len(i_arr):
            raise ValueError(
                f"corrupt archive: stored epoch {epoch} but the edge set "
                f"rebuilds to epoch {len(i_arr)}"
            )
        if node_epochs is not None:
            rebuilt = np.bincount(i_arr, minlength=n) + np.bincount(j_arr, minlength=n)
            if not np.array_equal(rebuilt.astype(np.int64), node_epochs):
                raise ValueError(
                    "corrupt archive: stored per-node epochs disagree with the "
                    "edge set"
                )
    else:
        # Mutated graphs: epochs are monotone counters that only ever run
        # AHEAD of what the surviving edge set would rebuild to.
        if epoch < len(i_arr):
            raise ValueError(
                f"corrupt archive: stored epoch {epoch} is behind the "
                f"{len(i_arr)}-edge set"
            )
        if alive is None or len(alive) != n:
            raise ValueError("corrupt archive: v3 alive mask missing or mis-sized")
        if node_epochs is None or len(node_epochs) != n:
            raise ValueError("corrupt archive: v3 node epochs missing or mis-sized")
        degrees = np.bincount(i_arr, minlength=n) + np.bincount(j_arr, minlength=n)
        if np.any(node_epochs < degrees):
            raise ValueError(
                "corrupt archive: stored per-node epochs behind the edge set"
            )
        if len(i_arr) and np.any(~alive[i_arr] | ~alive[j_arr]):
            raise ValueError("corrupt archive: edge incident to a tombstoned id")
    return ColumnSet(
        n=n,
        i=i_arr,
        j=j_arr,
        w=w_arr,
        version=version,
        epoch=epoch,
        metadata=metadata,
        alive=alive,
        node_epochs=node_epochs,
    )


def load_archive(path: PathLike) -> GraphArchive:
    """Load a snapshot written by :func:`save_graph` (any supported version).

    The rebuilt graph's epoch counters are checked against the stored ones
    — a mismatch means the archive is internally corrupt.
    """
    cols = load_columns(path)
    graph = PartialDistanceGraph(cols.n)
    for i, j, w in zip(cols.i, cols.j, cols.w):
        graph.add_edge(int(i), int(j), float(w))
    if cols.version == 1:
        return GraphArchive(graph=graph, version=1, epoch=graph.epoch)
    if cols.version >= 3:
        graph.restore_mutation_state(
            [bool(a) for a in cols.alive],
            cols.epoch,
            [int(e) for e in cols.node_epochs],
        )
    return GraphArchive(
        graph=graph, version=cols.version, epoch=cols.epoch, metadata=cols.metadata
    )


def load_graph(path: PathLike) -> PartialDistanceGraph:
    """Rebuild just the graph from an archive saved by :func:`save_graph`."""
    return load_archive(path).graph


def seed_oracle_cache(oracle: DistanceOracle, graph: PartialDistanceGraph) -> int:
    """Pre-fill an oracle's cache from a saved graph (no charges).

    Returns the number of seeded pairs.  The oracle must cover at least as
    many objects as the graph.
    """
    if oracle.n < graph.n:
        raise ValueError(
            f"oracle covers {oracle.n} objects but the graph has {graph.n}"
        )
    seeded = 0
    for i, j, w in graph.edges():
        if oracle.seed(i, j, w):
            seeded += 1
    return seeded


def resume_resolver(oracle: DistanceOracle, path: PathLike):
    """One-call resume: load a saved graph, seed the oracle, build a resolver.

    The returned :class:`~repro.core.resolver.SmartResolver` starts with the
    archive's edges already known; attach any bound provider to
    ``resolver.bounder`` afterwards (providers built on ``resolver.graph``
    absorb the preloaded edges at construction).
    """
    from repro.core.resolver import SmartResolver

    graph = load_graph(path)
    if graph.n != oracle.n:
        raise ValueError(
            f"archive holds {graph.n} objects but the oracle covers {oracle.n}"
        )
    seed_oracle_cache(oracle, graph)
    return SmartResolver(oracle, graph=graph)
