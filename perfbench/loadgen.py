"""Closed-loop load generator for the served workloads (stdlib only).

Runs as its own process: ``python3 loadgen.py <config.json>``.  It opens
one Unix-socket connection per entry of ``config["connections"]`` and
drives each from its own thread in a closed loop: the next request goes
out only after the previous reply arrived.  Requests are generated from
the seed in the config; the generator never sees the dataset, only ids.

Connection roles:

* ``query`` sends kNN / range / nearest queries on Zipf-skewed ids;
* ``churn`` alternates a ``mutate`` batch (removes of churnable live ids,
  inserts of payloads not currently live) with one query; its batches
  come from a seed of the connection's own.

With ``exclusive_writes`` set, the connections share a client-side gate:
a ``mutate`` batch goes out only when no query is in flight, and no query
goes out while a batch is waiting or in flight.  The program does not
isolate a running query from a batch applied mid-query (perfbench's
README.md, "Known program defects"), so this is what a client that needs
answers from one live-set version does.  Each request logs ``ready``,
when the client wanted to send it, and ``sent``, when it went out; the
time in between is the wait for the gate.

The load runs in segments of about ``SEGMENT_S`` seconds.  Before each
segment the generator lets every connection finish its request, prints
``pause`` and waits for a ``go`` line on stdin: the parent probes the
machine's speed while the server is idle, so each segment's timings can
be taken to a reference speed without a probe running beside the
program.  Segments go on until ``seconds`` of load have passed and every
connection has sent ``min_requests``.  The log of every request (what
was sent, when, in which segment, and the reply) and each segment's
start and end then go to stdout as one JSON line.  Send and reply times
come from ``time.perf_counter``, which on Linux is the system-wide
monotonic clock, so the server process can line them up with its own
events.
"""

from __future__ import annotations

import bisect
import json
import random
import socket
import sys
import threading
import time

#: Seconds of load between two speed probes.
SEGMENT_S = 4.0


def radical_inverse(t: int, base: int) -> float:
    """``t``-th point of the van der Corput sequence in ``base``."""
    inverse, scale = 0.0, 1.0 / base
    while t:
        t, digit = divmod(t, base)
        inverse += digit * scale
        scale /= base
    return inverse


class QueryStream:
    """Seeded query requests on Zipf(s)-skewed ids.

    Ids and kinds come from one randomly shifted Halton sequence (bases 3
    and 5), shared by all connections (connection ``i`` of ``m`` takes
    points ``i, i + m, ...``; the bases are prime to ``m`` = 2, so each
    share is itself evenly spread), pushed through the Zipf and mix
    distributions rather than from independent draws: every prefix of the
    stream then holds each rank and kind in close to its expected share,
    so runs with different seeds see traffic of the same make-up in a
    different order.  With independent draws, which tail ids happened to
    come up moved strong calls and throughput by over 10% between seeds.
    """

    def __init__(self, cfg: dict, rng: random.Random, index: int, stride: int) -> None:
        self.rng = rng
        self.t = index
        self.stride = stride
        shared = random.Random(cfg["seed"])
        self.shift = (shared.random(), shared.random())
        # Most popular first; both connections share the ranking, so they
        # hit the same popular ids (cross-query reuse).
        self.ids = list(cfg["query_ids"])
        weights = [rank ** -cfg["zipf"] for rank in range(1, len(self.ids) + 1)]
        self.cum = []
        total = 0.0
        for w in weights:
            total += w
            self.cum.append(total)
        self.kinds = [kind for kind, _ in cfg["mix"]]
        self.kind_cum = []
        total = 0.0
        for _, share in cfg["mix"]:
            total += share
            self.kind_cum.append(total)
        self.k = cfg["k"]
        self.radii = cfg["radii"]

    def next(self, label: str) -> dict:
        rng = self.rng
        self.t += self.stride
        u = (radical_inverse(self.t, 3) + self.shift[0]) % 1.0
        v = (radical_inverse(self.t, 5) + self.shift[1]) % 1.0
        q = self.ids[min(bisect.bisect(self.cum, u * self.cum[-1]), len(self.ids) - 1)]
        kind = self.kinds[min(bisect.bisect(self.kind_cum, v * self.kind_cum[-1]), len(self.kinds) - 1)]
        params = {"query": q}
        if kind == "knn":
            params["k"] = self.k
        elif kind == "range":
            params["radius"] = rng.choice(self.radii)
        return {"op": "submit", "spec": {"kind": kind, "params": params, "label": label}}


class ChurnStream:
    """Mutation batches over the churnable ids; tracks slot -> payload."""

    def __init__(self, cfg: dict, rng: random.Random) -> None:
        self.rng = rng
        self.live = {int(s): int(p) for s, p in cfg["churnable"].items()}
        self.pool = sorted(int(p) for p in cfg["reserve"])
        self.removes = cfg["removes"]
        self.inserts = cfg["inserts"]
        self.pending = None

    def next(self) -> dict:
        slots = self.rng.sample(sorted(self.live), self.removes)
        payloads = self.rng.sample(self.pool, self.inserts)
        self.pending = (slots, payloads)
        mutations = [{"kind": "remove", "id": s} for s in slots]
        mutations += [{"kind": "insert", "payload": p} for p in payloads]
        return {"op": "mutate", "mutations": mutations}

    def applied(self, reply: dict) -> None:
        slots, payloads = self.pending
        for s in slots:
            self.pool.append(self.live.pop(s))
        for p in payloads:
            self.pool.remove(p)
        for s, p in zip(reply["result"]["inserted_ids"], payloads):
            self.live[int(s)] = p
        self.pool.sort()


class WriteGate:
    """Client-side reader-writer gate: a write excludes every query.

    A waiting write holds back new queries, so writes are not starved.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._queries = 0
        self._writing = False
        self._waiting = 0

    def enter(self, write: bool) -> None:
        with self._cond:
            if write:
                self._waiting += 1
                while self._writing or self._queries:
                    self._cond.wait()
                self._waiting -= 1
                self._writing = True
            else:
                while self._writing or self._waiting:
                    self._cond.wait()
                self._queries += 1

    def leave(self, write: bool) -> None:
        with self._cond:
            if write:
                self._writing = False
            else:
                self._queries -= 1
            self._cond.notify_all()


class Segments:
    """Pauses every connection at segment ends for the parent's probe."""

    def __init__(self, cfg: dict, logs: list) -> None:
        self.cfg = cfg
        self.logs = logs
        self.count = max(1, round(cfg["seconds"] / SEGMENT_S))
        self.length = cfg["seconds"] / self.count
        self.spans: list = []
        self.done = False
        self.barrier = threading.Barrier(len(cfg["connections"]), action=self._turn)
        self._turn()

    def _turn(self) -> None:
        """Close the running segment and, unless the load is over, open the next."""
        if self.spans:
            self.spans[-1][1] = time.perf_counter()
            enough = min(len(log) for log in self.logs) >= self.cfg["min_requests"]
            if len(self.spans) >= self.count and enough:
                self.done = True
                return
        print("pause", flush=True)
        if sys.stdin.readline().strip() != "go":
            raise RuntimeError("the parent did not say go")
        now = time.perf_counter()
        self.spans.append([now, None])
        self.end = now + self.length

    @property
    def index(self) -> int:
        return len(self.spans) - 1


def drive(cfg: dict, conn_cfg: dict, index: int, segments: Segments, gate, log: list) -> None:
    rng = random.Random(cfg["seed"] * 1000 + index)
    queries = QueryStream(cfg, rng, index, len(cfg["connections"]))
    churn = None
    if conn_cfg["role"] == "churn":
        churn = ChurnStream(conn_cfg, random.Random(conn_cfg["seed"]))
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.connect(cfg["socket"])
    reader = sock.makefile("rb")
    try:
        seq = 0
        while True:
            if time.perf_counter() >= segments.end:
                segments.barrier.wait()
                if segments.done:
                    break
            label = f"c{index}-{seq}"
            if churn is not None and seq % 2 == 0:
                request = churn.next()
            else:
                request = queries.next(label)
            data = (json.dumps(request) + "\n").encode("utf-8")
            write = request["op"] == "mutate"
            ready = time.perf_counter()
            if gate is not None:
                gate.enter(write)
            try:
                sent = time.perf_counter()
                sock.sendall(data)
                line = reader.readline()
                replied = time.perf_counter()
            finally:
                if gate is not None:
                    gate.leave(write)
            if not line:
                raise ConnectionError("server closed the connection")
            reply = json.loads(line)
            if request["op"] == "mutate" and reply.get("ok"):
                churn.applied(reply)
            log.append(
                {"conn": index, "seq": seq, "label": label, "seg": segments.index,
                 "request": request, "ready": ready, "sent": sent, "replied": replied,
                 "reply": reply}
            )
            seq += 1
    finally:
        reader.close()
        sock.close()


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        cfg = json.load(fh)
    logs = [[] for _ in cfg["connections"]]
    errors = []
    segments = Segments(cfg, logs)
    gate = WriteGate() if cfg.get("exclusive_writes") else None

    def run(index: int, conn_cfg: dict) -> None:
        try:
            drive(cfg, conn_cfg, index, segments, gate, logs[index])
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            errors.append(f"connection {index}: {type(exc).__name__}: {exc}")
            segments.barrier.abort()

    threads = [
        threading.Thread(target=run, args=(i, c), daemon=True)
        for i, c in enumerate(cfg["connections"])
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    json.dump({"segments": segments.spans, "log": logs, "errors": errors}, sys.stdout)
    print(flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
