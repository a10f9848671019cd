"""Compiled hot kernels over CSR adjacency arrays.

The three bound-maintenance loops that dominate CPU once the oracle is
cheap — the Tri frontier sweep, the SPLUB Dijkstra relaxation,
and the LAESA/sketch landmark-matrix sweep — are implemented here twice:

* a **Numba** backend (``@njit``-compiled, used automatically when numba
  is importable), and
* a **pure-NumPy fallback** with identical IEEE-754 elementwise operations
  and order-independent min/max reductions, so both backends return
  *byte-identical* results (the CI parity job pins this).

Every kernel consumes the ``(indptr, indices, weights)`` CSR triple served
by :meth:`repro.core.partial_graph.PartialDistanceGraph.csr_arrays` (an
epoch-keyed mirror of the known edges) instead of rebuilding per-call flat
mirrors.

Backend selection happens at import: set ``REPRO_NO_JIT=1`` to force the
NumPy fallback even when numba is installed (the CI matrix runs the suite
both ways), or call :func:`disable_jit` / :func:`enable_jit` at runtime
(the CLI ``--no-jit`` flag does).  :func:`backend` reports which one is
active.
"""

from __future__ import annotations

import math
import os
from heapq import heappop, heappush
from typing import Dict, Tuple

import numpy as np

#: Environment knob: any value other than empty/"0"/"false" forces the
#: NumPy fallback at import time.
ENV_NO_JIT = "REPRO_NO_JIT"


def _env_disables_jit() -> bool:
    return os.environ.get(ENV_NO_JIT, "").strip().lower() not in ("", "0", "false")


# -- NumPy fallback implementations -----------------------------------------


def _tri_frontier_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    u: int,
    others: np.ndarray,
    cap: float,
    relaxation: float,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Tri bounds for every pair ``(u, c)`` over CSR rows, one dense gather.

    Returns ``(lowers, uppers, triangles)`` aligned with ``others``;
    candidates without triangles get ``(0, cap)``.  Same scatter/gather +
    segmented-reduceat shape as the PR-2 mirror kernel, but the candidate
    rows come from one flat CSR gather instead of per-node mirror lookups.
    """
    k = others.shape[0]
    lbs = np.zeros(k, dtype=np.float64)
    ubs = np.full(k, cap, dtype=np.float64)
    s, e = int(indptr[u]), int(indptr[u + 1])
    if e == s:
        return lbs, ubs, 0
    # Two sweep orders compute the same triangle set {(u, w, c) : both
    # edges known}: candidate-major scans every candidate's adjacency
    # (work = sum of candidate degrees), neighbor-major scans the adjacency
    # of u's neighbors (work = sum of N(u) degrees).  min/max reductions
    # are order-independent bit-for-bit, so pick whichever touches less.
    cand_work = int((indptr[others + 1] - indptr[others]).sum())
    nbr_work = int((indptr[indices[s:e] + 1] - indptr[indices[s:e]]).sum())
    if nbr_work < cand_work:
        return _tri_frontier_numpy_nbr(
            indptr, indices, weights, n, u, others, cap, relaxation, lbs, ubs
        )
    dense = np.full(n, math.inf)
    dense[indices[s:e]] = weights[s:e]
    starts = indptr[others]
    lengths = indptr[others + 1] - starts
    nz = np.nonzero(lengths)[0]
    if nz.size == 0:
        return lbs, ubs, 0
    l_nz = lengths[nz].astype(np.intp)
    s_nz = starts[nz].astype(np.intp)
    total = int(l_nz.sum())
    offsets = np.zeros(nz.size, dtype=np.intp)
    np.cumsum(l_nz[:-1], out=offsets[1:])
    flat = np.repeat(s_nz - offsets, l_nz) + np.arange(total, dtype=np.intp)
    wc = weights[flat]
    du = dense[indices[flat]]
    valid = np.isfinite(du)
    triangles = int(valid.sum())
    c = relaxation
    if c == 1.0:
        lb_elem = np.where(valid, np.abs(du - wc), -math.inf)
    else:
        lb_elem = np.where(valid, np.maximum(du / c - wc, wc / c - du), -math.inf)
    ub_elem = np.where(valid, du + wc, math.inf)
    lb_red = np.maximum.reduceat(lb_elem, offsets)
    ub_red = np.minimum.reduceat(ub_elem, offsets)
    if c != 1.0:
        # min(c·(x+y)) == c·min(x+y): positive scaling is monotone under
        # IEEE-754 rounding, so scaling after the reduction is bit-identical
        # to scaling each element first.
        ub_red = c * ub_red
    np.maximum(lb_red, 0.0, out=lb_red)
    np.minimum(ub_red, cap, out=ub_red)
    np.minimum(lb_red, ub_red, out=lb_red)
    lbs[nz] = lb_red
    ubs[nz] = ub_red
    return lbs, ubs, triangles


def _tri_frontier_numpy_nbr(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    u: int,
    others: np.ndarray,
    cap: float,
    relaxation: float,
    lbs: np.ndarray,
    ubs: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Neighbor-major Tri sweep: enumerate triangles from u's neighbor rows.

    Every element (one triangle ``u — w — c``) appears in exactly one
    neighbor row, so dense scatter-reductions over the third vertex see the
    identical element multiset as the candidate-major reduceat — and exact
    min/max make the reduction order irrelevant bit-for-bit.
    """
    s, e = int(indptr[u]), int(indptr[u + 1])
    nbrs = indices[s:e]
    d_un = weights[s:e]
    starts = indptr[nbrs].astype(np.intp)
    lengths = (indptr[nbrs + 1] - indptr[nbrs]).astype(np.intp)
    total = int(lengths.sum())
    triangles = 0
    if total:
        offsets = np.zeros(nbrs.shape[0], dtype=np.intp)
        np.cumsum(lengths[:-1], out=offsets[1:])
        flat = np.repeat(starts - offsets, lengths) + np.arange(total, dtype=np.intp)
        third = indices[flat]
        wkv = weights[flat]
        duk = np.repeat(d_un, lengths)
        c = relaxation
        if c == 1.0:
            lb_elem = np.abs(duk - wkv)
        else:
            lb_elem = np.maximum(duk / c - wkv, wkv / c - duk)
        ub_elem = duk + wkv
        lb_dense = np.full(n, -math.inf)
        ub_dense = np.full(n, math.inf)
        count = np.zeros(n, dtype=np.int64)
        np.maximum.at(lb_dense, third, lb_elem)
        np.minimum.at(ub_dense, third, ub_elem)
        np.add.at(count, third, 1)
        lb_red = lb_dense[others]
        ub_red = ub_dense[others]
        triangles = int(count[others].sum())
        if c != 1.0:
            ub_red = c * ub_red
        np.maximum(lb_red, 0.0, out=lb_red)
        np.minimum(ub_red, cap, out=ub_red)
        np.minimum(lb_red, ub_red, out=lb_red)
        lbs[:] = lb_red
        ubs[:] = ub_red
    return lbs, ubs, triangles


def _sssp_numpy(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    source: int,
) -> np.ndarray:
    """Single-source shortest paths over a CSR adjacency (binary heap).

    Mirrors :func:`repro.bounds.splub.dijkstra_distances` exactly — same
    heap order, same vectorised relaxation arithmetic — so the returned
    array is byte-identical to the mirror-based implementation.
    """
    dist = np.full(n, math.inf)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        s, e = int(indptr[u]), int(indptr[u + 1])
        ids = indices[s:e]
        nd = d + weights[s:e]
        improved = nd < dist[ids]
        if improved.any():
            for v, ndv in zip(ids[improved].tolist(), nd[improved].tolist()):
                dist[v] = ndv
                heappush(heap, (ndv, v))
    return dist


def _splub_sweep_numpy(
    sp_i: np.ndarray,
    sp_j: np.ndarray,
    e_i: np.ndarray,
    e_j: np.ndarray,
    e_w: np.ndarray,
) -> float:
    """SPLUB TLB sweep: best ``w(k,l) − min-detour`` over the known edges.

    Returns ``-inf`` for an empty edge set; unreachable detours contribute
    ``-inf`` per edge and never win the max.
    """
    if e_w.size == 0:
        return -math.inf
    detour = np.minimum(sp_i[e_i] + sp_j[e_j], sp_i[e_j] + sp_j[e_i])
    return float((e_w - detour).max())


def _laesa_sweep_numpy(
    matrix: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Landmark-matrix reduction: raw ``(lowers, uppers)`` per pair.

    ``lowers[b] = max_l |D[l, ii[b]] − D[l, jj[b]]|`` and
    ``uppers[b] = min_l D[l, ii[b]] + D[l, jj[b]]`` — uncapped; callers
    clamp against their ``max_distance``.
    """
    cols_i = matrix[:, ii]
    cols_j = matrix[:, jj]
    lowers = np.max(np.abs(cols_i - cols_j), axis=0)
    uppers = np.min(cols_i + cols_j, axis=0)
    return lowers, uppers


_NUMPY_IMPL: Dict[str, object] = {
    "tri_frontier": _tri_frontier_numpy,
    "sssp": _sssp_numpy,
    "splub_sweep": _splub_sweep_numpy,
    "laesa_sweep": _laesa_sweep_numpy,
}


# -- Numba backend -----------------------------------------------------------

try:  # pragma: no cover - exercised only on the numba CI leg
    if _env_disables_jit():
        raise ImportError("jit disabled via " + ENV_NO_JIT)
    from numba import njit as _njit
except ImportError:  # numba absent (or vetoed): NumPy fallback only
    _njit = None

if _njit is not None:  # pragma: no cover - exercised only on the numba CI leg

    @_njit(cache=True)
    def _tri_frontier_numba(indptr, indices, weights, n, u, others, cap, relaxation):
        k = others.shape[0]
        lbs = np.zeros(k, dtype=np.float64)
        ubs = np.full(k, cap, dtype=np.float64)
        triangles = 0
        s = indptr[u]
        e = indptr[u + 1]
        if e == s:
            return lbs, ubs, triangles
        dense = np.full(n, np.inf)
        for t in range(s, e):
            dense[indices[t]] = weights[t]
        c = relaxation
        for idx in range(k):
            cand = others[idx]
            cs = indptr[cand]
            ce = indptr[cand + 1]
            if ce == cs:
                continue
            lb = -np.inf
            ub = np.inf
            for t in range(cs, ce):
                du = dense[indices[t]]
                if du == np.inf:
                    continue
                wc = weights[t]
                triangles += 1
                if c == 1.0:
                    gap = du - wc
                    if gap < 0.0:
                        gap = -gap
                else:
                    g1 = du / c - wc
                    g2 = wc / c - du
                    gap = g1 if g1 > g2 else g2
                if gap > lb:
                    lb = gap
                tot = du + wc
                if tot < ub:
                    ub = tot
            if c != 1.0:
                ub = c * ub
            if lb < 0.0:
                lb = 0.0
            if ub > cap:
                ub = cap
            if lb > ub:
                lb = ub
            lbs[idx] = lb
            ubs[idx] = ub
        return lbs, ubs, triangles

    @_njit(cache=True)
    def _sssp_numba(indptr, indices, weights, n, source):
        dist = np.full(n, np.inf)
        dist[source] = 0.0
        heap_cap = indptr[n] + 1
        heap_d = np.empty(heap_cap, dtype=np.float64)
        heap_v = np.empty(heap_cap, dtype=np.int64)
        heap_d[0] = 0.0
        heap_v[0] = source
        size = 1
        while size > 0:
            d = heap_d[0]
            u = heap_v[0]
            size -= 1
            # Move the last leaf to the root and sift it down; ties break on
            # the node id, matching heapq's (d, v) tuple order exactly.
            heap_d[0] = heap_d[size]
            heap_v[0] = heap_v[size]
            pos = 0
            while True:
                child = 2 * pos + 1
                if child >= size:
                    break
                right = child + 1
                if right < size and (
                    heap_d[right] < heap_d[child]
                    or (heap_d[right] == heap_d[child] and heap_v[right] < heap_v[child])
                ):
                    child = right
                if heap_d[child] < heap_d[pos] or (
                    heap_d[child] == heap_d[pos] and heap_v[child] < heap_v[pos]
                ):
                    heap_d[pos], heap_d[child] = heap_d[child], heap_d[pos]
                    heap_v[pos], heap_v[child] = heap_v[child], heap_v[pos]
                    pos = child
                else:
                    break
            if d > dist[u]:
                continue
            for t in range(indptr[u], indptr[u + 1]):
                v = indices[t]
                nd = d + weights[t]
                if nd < dist[v]:
                    dist[v] = nd
                    heap_d[size] = nd
                    heap_v[size] = v
                    cpos = size
                    size += 1
                    while cpos > 0:
                        parent = (cpos - 1) // 2
                        if heap_d[cpos] < heap_d[parent] or (
                            heap_d[cpos] == heap_d[parent]
                            and heap_v[cpos] < heap_v[parent]
                        ):
                            heap_d[cpos], heap_d[parent] = heap_d[parent], heap_d[cpos]
                            heap_v[cpos], heap_v[parent] = heap_v[parent], heap_v[cpos]
                            cpos = parent
                        else:
                            break
        return dist

    @_njit(cache=True)
    def _splub_sweep_numba(sp_i, sp_j, e_i, e_j, e_w):
        best = -np.inf
        for t in range(e_w.shape[0]):
            a = sp_i[e_i[t]] + sp_j[e_j[t]]
            b = sp_i[e_j[t]] + sp_j[e_i[t]]
            detour = a if a < b else b
            cand = e_w[t] - detour
            if cand > best:
                best = cand
        return best

    @_njit(cache=True)
    def _laesa_sweep_numba(matrix, ii, jj):
        rows = matrix.shape[0]
        k = ii.shape[0]
        lowers = np.empty(k, dtype=np.float64)
        uppers = np.empty(k, dtype=np.float64)
        for b in range(k):
            i = ii[b]
            j = jj[b]
            lb = -np.inf
            ub = np.inf
            for row in range(rows):
                di = matrix[row, i]
                dj = matrix[row, j]
                gap = di - dj
                if gap < 0.0:
                    gap = -gap
                if gap > lb:
                    lb = gap
                tot = di + dj
                if tot < ub:
                    ub = tot
            lowers[b] = lb
            uppers[b] = ub
        return lowers, uppers

    def _sssp_numba_wrap(indptr, indices, weights, n, source):
        return _sssp_numba(indptr, indices, weights, int(n), int(source))

    def _tri_frontier_numba_wrap(indptr, indices, weights, n, u, others, cap, c):
        lbs, ubs, triangles = _tri_frontier_numba(
            indptr,
            indices,
            weights,
            int(n),
            int(u),
            np.ascontiguousarray(others, dtype=np.int64),
            float(cap),
            float(c),
        )
        return lbs, ubs, int(triangles)

    def _splub_sweep_numba_wrap(sp_i, sp_j, e_i, e_j, e_w):
        if e_w.size == 0:
            return -math.inf
        return float(_splub_sweep_numba(sp_i, sp_j, e_i, e_j, e_w))

    def _laesa_sweep_numba_wrap(matrix, ii, jj):
        return _laesa_sweep_numba(
            np.ascontiguousarray(matrix, dtype=np.float64),
            np.ascontiguousarray(ii, dtype=np.int64),
            np.ascontiguousarray(jj, dtype=np.int64),
        )

    _NUMBA_IMPL: Dict[str, object] | None = {
        "tri_frontier": _tri_frontier_numba_wrap,
        "sssp": _sssp_numba_wrap,
        "splub_sweep": _splub_sweep_numba_wrap,
        "laesa_sweep": _laesa_sweep_numba_wrap,
    }
else:
    _NUMBA_IMPL = None

HAVE_NUMBA = _NUMBA_IMPL is not None

_active: Dict[str, object] = dict(_NUMBA_IMPL if HAVE_NUMBA else _NUMPY_IMPL)
_active_name = "numba" if HAVE_NUMBA else "numpy"


# -- backend control ---------------------------------------------------------


def backend() -> str:
    """The active backend name: ``"numba"`` or ``"numpy"``."""
    return _active_name


def jit_enabled() -> bool:
    """True when kernels dispatch to the compiled backend."""
    return _active_name == "numba"


def disable_jit() -> None:
    """Switch every kernel to the pure-NumPy fallback (the CLI ``--no-jit``)."""
    global _active_name
    _active.update(_NUMPY_IMPL)
    _active_name = "numpy"


def enable_jit() -> bool:
    """Switch back to the compiled backend; returns False when unavailable.

    Unavailable means numba was not importable at module import (including
    when ``REPRO_NO_JIT`` vetoed it) — re-enabling requires a fresh process.
    """
    global _active_name
    if not HAVE_NUMBA:
        return False
    _active.update(_NUMBA_IMPL)
    _active_name = "numba"
    return True


def implementations(name: str) -> Dict[str, object]:
    """Both raw implementations of kernel ``name`` keyed by backend name.

    The parity tests call each backend directly on identical inputs and
    assert byte-identical outputs; only ``"numpy"`` is present when numba
    is unavailable.
    """
    impls: Dict[str, object] = {"numpy": _NUMPY_IMPL[name]}
    if HAVE_NUMBA:
        impls["numba"] = _NUMBA_IMPL[name]
    return impls


# -- public kernel entry points ---------------------------------------------


def tri_frontier(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    u: int,
    others: np.ndarray,
    cap: float,
    relaxation: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Tri bounds for every pair ``(u, others[b])`` in one CSR sweep.

    Returns ``(lowers, uppers, triangles_inspected)``; bounds are clamped
    to ``[0, cap]`` exactly like the per-pair Tri kernels.
    """
    return _active["tri_frontier"](indptr, indices, weights, n, u, others, cap, relaxation)


def sssp(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    source: int,
) -> np.ndarray:
    """Dijkstra distances from ``source`` over a CSR adjacency."""
    return _active["sssp"](indptr, indices, weights, n, source)


def splub_sweep(
    sp_i: np.ndarray,
    sp_j: np.ndarray,
    e_i: np.ndarray,
    e_j: np.ndarray,
    e_w: np.ndarray,
) -> float:
    """Best SPLUB lower-bound candidate over the known-edge columns."""
    return _active["splub_sweep"](sp_i, sp_j, e_i, e_j, e_w)


def laesa_sweep(
    matrix: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Raw landmark-matrix bound reduction for a batch of column pairs."""
    return _active["laesa_sweep"](matrix, ii, jj)
