"""The ``bsbm-serve`` workload: ``python -m repro serve`` over HTTP.

The server runs as its own process with a write-ahead log at the
defaults (fsync ``always``, a checkpoint after every flush).  One client
on one keep-alive connection runs ``CYCLES`` cycles, spread evenly over
the run's budget, so that every metric samples the whole run.  A cycle
boots the server from the N-Triples file with an empty log (timed from
spawn to the first ``/health`` answer: ``ingest_s``), runs passes of
the closed loop of :func:`workloads.serve_schedule` from the first,
dumps the whole closure through ``/query`` (``export_s``), then kills
the server with ``kill -9`` right after an acknowledged add and
restarts it (to the first answered query: ``restart_s``), and reads
back every write it had acknowledged.  Each of those metrics is the
median over the cycles.

A write is held at the client until the checkpoint of the write
before it has landed (``/metrics`` ``repro_serving_wal_checkpoints_total``),
and the hold is timed as part of the write's latency.  Reads are never
held: they overlap checkpoints as they come.  A write that reaches the
server while ``WriteAheadLog.checkpoint`` compacts the log is refused
with ``503`` or silently dropped from the log, depending on thread
timing (the known WAL compaction race, see README.md); a failure that
comes and goes with thread timing cannot be compared between two sets
of runs, so the client keeps its writes out of that window.  A write
that reaches the server during a checkpoint waits for that checkpoint
on the server's flush thread anyway, so the held latency is close to
what an unheld write would see.  A ``503`` is still counted as a failed
write, and its product is then neither expected nor ruled out.
"""

from __future__ import annotations

import gc
import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.parse
from typing import Dict, List, Optional, Tuple

import oracle
from workloads import BSBM, TYPE, ntriples, serve_schedule

BOOT_TIMEOUT = 120.0
HOLD_TIMEOUT = 60.0
#: Boot → loop → dump → ``kill -9`` restart cycles per run.
CYCLES = 10


class Failed(RuntimeError):
    """The server answered a way no workload operation may end."""


class Connection:
    """One keep-alive HTTP/1.1 connection that busy-polls its socket.

    The server answers with ``Content-Length`` bodies and no chunking,
    so a request is one ``send`` and the answer is read until its length
    is in.  Waiting by polling (yielding the CPU between polls) keeps
    the client's own wake-up latency and header parsing out of the
    measured latency, which is then the server's and the network's.
    """

    def __init__(self, host: str, port: int):
        self.address = (host, port)
        self.sock: Optional[socket.socket] = None

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None

    def request(self, method: str, path: str, body: bytes = None) -> Tuple[int, bytes]:
        if self.sock is None:
            self.sock = socket.create_connection(self.address, timeout=60)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock.setblocking(False)
        head = f"{method} {path} HTTP/1.1\r\nHost: localhost\r\n"
        if body is not None:
            head += ("Content-Type: application/n-triples\r\n"
                     f"Content-Length: {len(body)}\r\n")
        pending = memoryview(head.encode("ascii") + b"\r\n" + (body or b""))
        deadline = time.monotonic() + 60.0
        while pending:
            try:
                pending = pending[self.sock.send(pending):]
            except BlockingIOError:
                self._wait(deadline)
        received = bytearray()
        length = None
        while length is None or len(received) < length:
            try:
                chunk = self.sock.recv(1 << 20)
            except BlockingIOError:
                self._wait(deadline)
                continue
            if not chunk:
                self.close()
                raise ConnectionError("server closed the connection")
            received += chunk
            if length is None and b"\r\n\r\n" in received:
                header, _, rest = bytes(received).partition(b"\r\n\r\n")
                lines = header.decode("latin-1").split("\r\n")
                status = int(lines[0].split()[1])
                length = next(
                    int(line.split(":", 1)[1]) for line in lines[1:]
                    if line.lower().startswith("content-length:")
                )
                received = bytearray(rest)
        if len(received) != length:
            raise Failed(f"{len(received) - length} bytes after a response")
        return status, bytes(received)

    @staticmethod
    def _wait(deadline: float) -> None:
        if time.monotonic() > deadline:
            raise Failed("no answer from the server within 60 s")
        os.sched_yield()


class Server:
    """One ``python -m repro serve`` process and a keep-alive client."""

    def __init__(self, argv: List[str], env: dict, work: str):
        self.argv, self.env, self.work = argv, env, work
        self.boots = 0
        self.process: Optional[subprocess.Popen] = None
        self.connection: Optional[Connection] = None

    def boot(self) -> None:
        """Start the process and wait until it announces its port."""
        self.boots += 1
        log_path = os.path.join(self.work, f"serve-{self.boots}.log")
        with open(log_path, "wb") as log:
            self.process = subprocess.Popen(
                self.argv, env=self.env, stdout=subprocess.DEVNULL, stderr=log
            )
        deadline = time.monotonic() + BOOT_TIMEOUT
        marker = "repro: serving on http://"
        while True:
            with open(log_path, "r", encoding="utf-8", errors="replace") as log:
                text = log.read()
            if marker in text:
                address = text.split(marker, 1)[1].split()[0]
                host, port = address.rsplit(":", 1)
                break
            if self.process.poll() is not None:
                raise Failed(
                    f"server exited with {self.process.returncode} while "
                    f"booting: {text[-500:]}"
                )
            if time.monotonic() > deadline:
                raise Failed("server did not announce its port in time")
            time.sleep(0.002)
        self.connection = Connection(host, int(port))

    def request(self, method: str, path: str, body: bytes = None) -> Tuple[int, bytes]:
        return self.connection.request(method, path, body)

    def wait_answer(self, path: str) -> bytes:
        """GET ``path`` until the freshly booted server answers 200."""
        while True:
            try:
                status, body = self.request("GET", path)
            except ConnectionError:
                self.connection.close()
                time.sleep(0.002)
                continue
            if status != 200:
                raise Failed(f"GET {path} answered {status} after boot")
            return body

    def get_json(self, path: str) -> dict:
        status, body = self.request("GET", path)
        if status != 200:
            raise Failed(f"GET {path} answered {status}: {body[:200]!r}")
        return json.loads(body)

    def checkpoints(self) -> int:
        """Checkpoints the server has completed, log compaction included."""
        status, body = self.request("GET", "/metrics")
        if status != 200:
            raise Failed(f"GET /metrics answered {status}")
        for line in body.decode("utf-8").splitlines():
            if line.startswith("repro_serving_wal_checkpoints_total "):
                return int(line.split()[1])
        raise Failed("/metrics has no repro_serving_wal_checkpoints_total")

    def hold(self, checkpoints: int) -> bool:
        """Wait until ``checkpoints`` checkpoints have completed; returns
        whether the caller had to wait."""
        deadline = time.monotonic() + HOLD_TIMEOUT
        held = False
        while self.checkpoints() < checkpoints:
            if time.monotonic() > deadline:
                raise Failed(f"checkpoint {checkpoints} did not land in time")
            held = True
            time.sleep(0.001)
        return held

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise Failed("VmHWM missing from the server's /proc status")

    def kill(self) -> None:
        if self.connection is not None:
            self.connection.close()
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        if self.process is not None:
            self.process.wait(timeout=30)

    def stop(self) -> None:
        if self.connection is not None:
            self.connection.close()
        if self.process is None or self.process.poll() is not None:
            return
        self.process.send_signal(signal.SIGTERM)
        try:
            self.process.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=20)


def _query_path(text: str, limit: int = None) -> str:
    path = "/query?q=" + urllib.parse.quote(text)
    if limit is not None:
        path += f"&limit={limit}"
    return path


def _rows(payload: dict) -> List[tuple]:
    return [
        tuple(solution[name] for name in sorted(solution))
        for solution in payload["solutions"]
    ]


class Expected:
    """The closure the server should hold at any point of the loop.

    Fresh products only derive facts about themselves (checked here),
    so the expected closure is the input's closure plus the derived
    facts of every fresh product that is currently added.
    """

    def __init__(self, base: oracle.Closure, passes, restart_adds):
        self.base = base
        grown = base.copy()
        batches = [
            op["facts"] for ops in passes for op in ops if op["op"] == "add"
        ] + [add["facts"] for add in restart_adds]
        grown.add(tuple(f) for batch in batches for f in batch)
        self.fresh: Dict[str, List[tuple]] = {}
        fresh_nodes = {batch[0][0] for batch in batches}
        for fact in grown.facts - base.facts:
            if fact[0] not in fresh_nodes:
                raise Failed(f"a fresh product derived a fact about the input: {fact}")
            self.fresh.setdefault(fact[0], []).append(fact)
        self.live: set = set()
        #: Products whose write was refused with 503: queued but not
        #: durable, so they may or may not be there.
        self.uncertain: set = set()
        self.product = f"<{BSBM}Product>"
        self.base_extent = {(s,) for s in self.base.subjects(TYPE, self.product)}
        self._answers: Dict[str, list] = {}

    def answer(self, text: str) -> list:
        if text not in self._answers:
            self._answers[text] = oracle.answers(self.base, text)
        return self._answers[text]

    def node_types(self, node: str) -> List[tuple]:
        if node not in self.live:
            return []
        return sorted((o,) for s, p, o in self.fresh[node] if p == TYPE)

    def extent(self, live) -> set:
        return self.base_extent | {
            (node,) for node in live
            if (node, TYPE, self.product) in self.fresh[node]
        }

    def certain(self, lines) -> List[str]:
        """``lines`` without the facts about uncertain products."""
        if not self.uncertain:
            return list(lines)
        return [line for line in lines if line.split(" ", 1)[0] not in self.uncertain]

    def lines(self) -> List[str]:
        lines = self.base.lines()
        for node in self.live:
            lines.extend(f"{s} {p} {o} ." for s, p, o in self.fresh[node])
        return lines


def run(job: dict) -> dict:
    """Run the serving workload; returns samples, counts and errors."""
    seconds, trace = job["seconds"], job["trace"]
    facts = [tuple(f) for f in job["facts"]]
    base = oracle.Closure(job["ruleset"], facts)
    passes = serve_schedule(job["seed"], facts, base.facts)
    restart_adds = [
        {"op": "add", "node": f"<{BSBM}RestartProduct{k}>", "facts": [
            (f"<{BSBM}RestartProduct{k}>", TYPE, passes[0][-2]["facts"][0][2]),
            (f"<{BSBM}RestartProduct{k}>", f"<{BSBM}producer>",
             passes[0][-2]["facts"][1][2]),
        ]} for k in range(CYCLES)
    ]
    expected = Expected(base, passes, restart_adds)
    wal = os.path.join(job["work"], "serve.wal")
    argv = [
        sys.executable, "-m", "repro", "serve", job["input"], "--port", "0",
        "--wal", wal, "--ruleset", job["ruleset"],
    ]
    server = Server(argv, job["env"], job["work"])
    out = {
        "errors": [], "read_ms": [], "write_ms": [], "pass_read_s": [],
        "pass_write_s": [], "boot_s": [], "dump_s": [], "restart_s": [],
        "peak_rss_mb": [], "layers": {}, "held_writes": 0,
        "ops": {"ingest": 0, "read": 0, "write": 0, "export": 0, "restart": 0},
        "failed": {"ingest": 0, "read": 0, "write": 0, "export": 0, "restart": 0},
    }
    errors = out["errors"]
    checks: List[tuple] = []
    checkpoints = 0
    acked: List[dict] = []

    def write(op: dict) -> Optional[float]:
        """One ``?wait=1`` write, held until the previous write's
        checkpoint has landed; returns its latency from the moment the
        client is ready to send it, or None if the server refused it
        with 503 (counted as a failed write)."""
        nonlocal checkpoints
        body = ntriples(op["facts"]).encode("utf-8")
        path = "/add?wait=1" if op["op"] == "add" else "/remove?wait=1"
        began = time.perf_counter()
        if server.hold(checkpoints):
            out["held_writes"] += 1
        status, payload = server.request("POST", path, body)
        elapsed = time.perf_counter() - began
        out["ops"]["write"] += 1
        # Applied either way (a 503 write stays queued), so it is
        # flushed and checkpointed like any other.
        checkpoints += 1
        if status == 503:
            out["failed"]["write"] += 1
            expected.live.discard(op["node"])
            expected.uncertain.add(op["node"])
            return None
        if status != 200:
            raise Failed(f"POST {path} answered {status}: {payload[:200]!r}")
        expected.uncertain.discard(op["node"])
        if op["op"] == "add":
            expected.live.add(op["node"])
        else:
            expected.live.discard(op["node"])
        acked.append(op)
        return elapsed

    def read(op: dict) -> float:
        path = _query_path(op["q"], op.get("limit"))
        began = time.perf_counter()
        status, body = server.request("GET", path)
        elapsed = time.perf_counter() - began
        out["ops"]["read"] += 1
        if status != 200:
            raise Failed(f"GET {path} answered {status}: {body[:200]!r}")
        out["read_ms"].append(elapsed * 1000.0)
        payload = json.loads(body)
        if op.get("limit"):
            checks.append(("extent", op, payload, (
                frozenset(expected.live), frozenset(expected.uncertain))))
        elif op.get("after_write"):
            node = op["q"].split()[0]
            if node not in expected.uncertain:
                checks.append(("rows", op, sorted(_rows(payload)),
                               expected.node_types(node)))
        else:
            checks.append(("base", op, _rows(payload), None))
        return elapsed

    measure_s = seconds / 3 if trace else seconds
    started = time.perf_counter()
    #: Seconds a cycle spends after its loop (dump, restart, checks).
    tail_s = 0.0
    try:
        for cycle in range(CYCLES):
            cycle_end = started + measure_s * (cycle + 1) / CYCLES
            if job.get("setup"):
                job["setup"]()  # one set-up sample per cycle, see run.py
            # -- boot from the N-Triples file with an empty log -----------
            server.stop()
            for stale in (wal, wal + ".checkpoint"):
                if os.path.exists(stale):
                    os.unlink(stale)
            expected.live.clear()
            expected.uncertain.clear()
            acked.clear()
            gc.collect()
            began = time.perf_counter()
            server.boot()
            server.wait_answer("/health")
            out["boot_s"].append(time.perf_counter() - began)
            out["ops"]["ingest"] += 1
            checkpoints = server.checkpoints()

            # -- the closed loop ------------------------------------------
            # The client's own objects (the oracle's closures) are large:
            # keep the collector from pausing inside a timed request.
            gc.collect()
            gc.freeze()
            gc.disable()
            walls: List[float] = []
            for ops in passes:
                if walls and time.perf_counter() + max(walls) + tail_s > cycle_end:
                    break
                pass_started = time.perf_counter()
                read_s = write_s = 0.0
                for op in ops:
                    if op["op"] == "read":
                        read_s += read(op)
                        continue
                    elapsed = write(op)
                    if elapsed is not None:
                        write_s += elapsed
                        out["write_ms"].append(elapsed * 1000.0)
                out["pass_read_s"].append(read_s)
                out["pass_write_s"].append(write_s)
                walls.append(time.perf_counter() - pass_started)
            gc.enable()
            gc.unfreeze()
            tail_started = time.perf_counter()

            # -- the whole closure out through /query ---------------------
            gc.collect()
            began = time.perf_counter()
            status, body = server.request("GET", _query_path("?s ?p ?o", -1))
            out["dump_s"].append(time.perf_counter() - began)
            out["ops"]["export"] += 1
            if status != 200:
                raise Failed(f"closure dump answered {status}: {body[:200]!r}")
            dumped = expected.certain(
                " ".join(row[name] for name in ("s", "p", "o")) + " ."
                for row in json.loads(body)["solutions"])
            del body
            want = oracle.lines_digest(expected.lines())
            if oracle.lines_digest(dumped) != want:
                errors.append(f"closure dump digest {oracle.lines_digest(dumped)} != {want}")
            del dumped
            out["peak_rss_mb"].append(server.peak_rss_mb())
            if trace and cycle == CYCLES - 1:
                out["layers"].update(_serving_layers(server))
                server.hold(checkpoints)
                out["layers"]["store.file_bytes_per_triple"] = (
                    os.path.getsize(wal + ".checkpoint")
                    / server.get_json("/health")["n_triples"]
                )

            # -- kill -9 right after an acknowledged add, restart ---------
            add = restart_adds[cycle]
            if write(add) is not None:
                server.kill()
                if job.get("before_restart"):
                    job["before_restart"](wal)
                began = time.perf_counter()
                server.boot()
                body = server.wait_answer(_query_path(f"{add['node']} a ?t"))
                out["restart_s"].append(time.perf_counter() - began)
                out["ops"]["restart"] += 1
                checkpoints = server.checkpoints()
                got = sorted(_rows(json.loads(body)))
                if add["node"] in expected.live and got != expected.node_types(add["node"]):
                    errors.append(f"acknowledged add {add['node']} lost by kill -9: {got}")
            if trace and cycle == CYCLES - 1:
                out["layers"]["serving.held_writes"] = out["held_writes"]
                out["layers"]["serving.replayed"] = (
                    server.get_json("/stats")["wal"]["replayed_at_boot"])

            # -- every acknowledged write survived the restart ------------
            for node in sorted({op["node"] for op in acked} - expected.uncertain):
                got = sorted(_rows(server.get_json(_query_path(f"{node} a ?t"))))
                out["ops"]["read"] += 1
                if got != expected.node_types(node):
                    errors.append(f"after a restart, {node} reads {got}")
            want_count = len(expected.lines())
            extra = sum(len(expected.fresh[node]) for node in expected.uncertain)
            n_triples = server.get_json("/health")["n_triples"]
            if not want_count <= n_triples <= want_count + extra:
                errors.append(f"closure size after a restart {n_triples} != {want_count}")
            tail_s = time.perf_counter() - tail_started
    finally:
        gc.enable()
        gc.unfreeze()
        server.stop()

    # Reads checked after the loop, so the oracle stays out of the timing.
    for kind, op, got, want in checks:
        if kind == "extent":
            live, uncertain = want
            rows, want = set(_rows(got)), expected.extent(live)
            maybe = expected.extent(live | uncertain)
            if (not len(want) <= got["n"] <= len(maybe) or not rows <= maybe
                    or len(rows) != min(100, got["n"])):
                errors.append(f"class extent answered n={got['n']} ({len(rows)} rows), expected {len(want)}")
        elif kind == "rows":
            if got != want:
                errors.append(f"read-back {op['q']!r}: {got} != {want}")
        elif sorted(got) != expected.answer(op["q"]):
            errors.append(f"read {op['q']!r}: {len(got)} rows differ from the oracle")
    return out


def _serving_layers(server: Server) -> dict:
    pings = []
    for _ in range(50):
        began = time.perf_counter()
        server.get_json("/health")
        pings.append((time.perf_counter() - began) * 1000.0)
    pings.sort()
    stats = server.get_json("/stats")
    flush, wal = stats["flush"], stats["wal"]
    return {
        "serving.http_p50_ms": pings[len(pings) // 2],
        "serving.flushes": flush["flushes"],
        "serving.flush_p50_ms": (flush["p50_seconds"] or 0.0) * 1000.0,
        "serving.wal_appends": wal["appended_total"],
        "serving.checkpoints": wal["checkpoints_total"],
        "serving.wal_append_errors": wal["append_errors_total"],
    }
