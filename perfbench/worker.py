"""One library workload in a fresh process: the process that holds the store.

``run.py`` writes a job file (input path, ruleset, mode, reads, update
steps and the oracle's expected digests) and starts this script with
the program's ``src`` on ``PYTHONPATH``.  It runs whole passes of

    file --ingest--> closure --export--> N-Triples
         --query--> seeded BGP batch through ``Snapshot.solutions``
         --update--> add/remove steps, each followed by a read
         --restart--> ``save()``, ``Store.load()``, first answered query

until the time budget is spent (after one warm-up pass over the
workload's small input), checks every output against the expected
digests, and writes per-pass timings and any mismatch to the
result file.  The first pass writes each closure it checks (the
export, the closure after the updates, the reloaded closure) to a file
and later passes must reproduce it byte for byte (by SHA-256); the
parent compares those files with the oracle's digests after this
process has ended, so the process whose peak memory is reported holds
nothing of the checks but the fingerprints.  With ``"trace": true``
the second half of the budget runs with :class:`tracing.Tracer`
installed and per-layer numbers are reported too.

    python3 perfbench/worker.py JOB.json RESULT.json
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List

from oracle import answer_digest
from tracing import Tracer
from workloads import WORKLOADS, setup_once
from workloads import ntriples as statements

from repro import Store
from repro.memsim import measure_store
from repro.rdf import ntriples
from repro.rdf.ntriples import parse


def _rows(solutions) -> List[tuple]:
    return [
        tuple(solution[name].n3() for name in sorted(solution))
        for solution in solutions
    ]


def _triples(facts) -> list:
    return list(parse(statements(facts)))


class Pass:
    """One pass over the workload's path; collects timings and checks."""

    def __init__(self, job: dict, tracer: Tracer = None):
        self.job = job
        #: Closure files written for the parent to check, by key.
        self.texts: Dict[str, str] = {}
        self.expected = job["expected"]
        self.tracer = tracer
        self.timings: Dict[str, float] = {}
        self.layers: Dict[str, float] = {}
        self.read_ms: List[float] = []
        self.write_ms: List[float] = []
        self.errors: List[str] = []
        #: Seconds spent on the first pass's full-digest checks.
        self.check_s = 0.0
        self.ops = {"ingest": 0, "export": 0, "read": 0, "write": 0, "restart": 0}

    def check(self, what: str, got, want) -> None:
        if got != want:
            self.errors.append(f"{what}: got {got!r}, expected {want!r}")

    def _layer(self, name: str, value: float) -> None:
        self.layers[name] = self.layers.get(name, 0.0) + value

    def _take(self, layer: str, name: str = None) -> None:
        if self.tracer is not None:
            self._layer(name or layer + "_s", self.tracer.total(layer))

    def run(self, seen: dict) -> None:
        job, tracer = self.job, self.tracer
        # -- ingest: file -> closure ------------------------------------
        gc.collect()
        if tracer is not None:
            tracer.reset()
        started = time.perf_counter()
        store = Store.from_file(
            job["input"], ruleset=job["ruleset"], materialize=job["materialize"]
        )
        store.materialize()
        self.timings["ingest_s"] = time.perf_counter() - started
        self.ops["ingest"] += 1
        if tracer is not None:
            stats = store.stats
            self._take("rdf.parse")
            self._take("dictionary.encode")
            self._take("core.materialize")
            self._layer("closure.closure_s", stats.closure_seconds)
            self._layer("rules.inference_s", stats.inference_seconds)
            self._layer("store.merge_s", stats.merge_seconds)
            self._layer("rules.iterations", stats.iterations)
            self._layer("rules.inferred_triples", stats.n_inferred)
            self._take("litemat.encode")
            self._layer("litemat.encodes", tracer.counts["litemat.encodes"])
            report = measure_store(store)
            self._layer("memsim.resident_bytes", report.resident_bytes)
            self._layer(
                "memsim.bytes_per_triple",
                report.resident_bytes / int(self.expected["closure"].split(":")[0]),
            )

        # -- export: closure -> N-Triples text --------------------------
        gc.collect()
        started = time.perf_counter()
        if tracer is None:
            text = ntriples.serialize(store.triples())
        else:
            decoded = list(store.triples())
            middle = time.perf_counter()
            text = ntriples.serialize(decoded)
            self._layer("dictionary.decode_s", middle - started)
            self._layer("rdf.serialize_s", time.perf_counter() - middle)
            del decoded
        self.timings["export_s"] = time.perf_counter() - started
        self.ops["export"] += 1
        self._check_text("export", text, seen)
        del text

        # -- query: the seeded BGP batch --------------------------------
        gc.collect()
        if tracer is not None:
            tracer.reset()
        total = 0.0
        snapshot = store.snapshot()
        for index, query in enumerate(job["queries"]):
            started = time.perf_counter()
            solutions = snapshot.solutions(query)
            elapsed = time.perf_counter() - started
            total += elapsed
            self.read_ms.append(elapsed * 1000.0)
            self.ops["read"] += 1
            self.check(
                f"query {index} {query!r}",
                answer_digest(_rows(solutions)),
                self.expected["queries"][index],
            )
        self.timings["query_s"] = total
        del snapshot
        if tracer is not None:
            self._take("query.eval")
            self._layer("query.solutions", tracer.counts["query.solutions"])

        # -- update: add/remove steps, each followed by a read ----------
        gc.collect()
        steps = [(step, _triples(step["facts"])) for step in job["steps"]]
        flush_ms = {"add": [], "remove": []}
        if tracer is not None:
            tracer.reset()
        total = 0.0
        for index, (step, triples) in enumerate(steps):
            started = time.perf_counter()
            if step["kind"] == "add":
                store.add(triples)
            else:
                store.remove(triples)
            if tracer is not None:
                flushed = time.perf_counter()
                store.materialize()
                flush_ms[step["kind"]].append(
                    (time.perf_counter() - flushed) * 1000.0
                )
            solutions = store.solutions(step["read"])
            elapsed = time.perf_counter() - started
            total += elapsed
            self.write_ms.append(elapsed * 1000.0)
            self.ops["write"] += 1
            self.check(
                f"update step {index} read {step['read']!r}",
                answer_digest(_rows(solutions)),
                self.expected["steps"][index],
            )
        self.timings["update_s"] = total
        if tracer is not None:
            for kind, values in flush_ms.items():
                self._layer(
                    f"core.flush_{kind}_ms", statistics.median(values or [0.0])
                )
            self._take("litemat.encode")
            self._layer("litemat.encodes", tracer.counts["litemat.encodes"])
        if "final" not in seen:
            self._check_text(
                "closure after updates",
                lambda: ntriples.serialize(store.triples()),
                seen,
                key="final",
            )

        # -- restart: save, load, first answered query ------------------
        gc.collect()
        if tracer is not None:
            tracer.reset()
        path = job["store_file"]
        last = job["steps"][-1]
        started = time.perf_counter()
        store.save(path)
        saved = time.perf_counter() - started
        store.close()
        del store
        gc.collect()
        started = time.perf_counter()
        loaded = Store.load(path)
        solutions = loaded.solutions(last["read"])
        self.timings["restart_s"] = saved + time.perf_counter() - started
        self.ops["restart"] += 1
        if tracer is not None:
            self._layer(
                "store.file_bytes_per_triple",
                os.path.getsize(path) / int(self.expected["final"].split(":")[0]),
            )
        self.check(
            "first read after reload",
            answer_digest(_rows(solutions)),
            self.expected["steps"][-1],
        )
        if "reloaded" not in seen:
            self._check_text(
                "reloaded closure",
                lambda: ntriples.serialize(loaded.triples()),
                seen,
                key="reloaded",
            )
        if tracer is not None:
            self._take("core.save")
            self._take("core.load")
        os.unlink(path)
        loaded.close()

    def _check_text(self, what, text, seen, key="export") -> None:
        """The first pass writes the text for the parent to check; later
        passes must reproduce the first pass's exact text."""
        started = time.perf_counter()
        if callable(text):
            text = text()
        digest = hashlib.sha256()
        for start in range(0, len(text), 1 << 20):
            digest.update(text[start:start + (1 << 20)].encode("utf-8"))
        fingerprint = digest.hexdigest()
        if key in seen:
            self.check(f"{what} text", fingerprint, seen[key])
            return
        path = f"{self.job['store_file']}.{key}.nt"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        self.texts[key] = path
        seen[key] = fingerprint
        self.check_s += time.perf_counter() - started


def main(job_path: str, result_path: str) -> int:
    with open(job_path) as handle:
        job = json.load(handle)
    budget = float(job["seconds"])
    tracer = Tracer() if job["trace"] else None
    plain, traced = [], []
    seen: dict = {}
    texts: Dict[str, str] = {}
    started = time.perf_counter()
    # With tracing, the first half of the budget runs untraced passes
    # (the overhead baseline) and the second half traced ones.
    warmup_errors, warmup_texts = [], {}
    if job.get("warmup"):
        warm = Pass(job["warmup"])
        warm.run({})
        warmup_errors = [f"warm-up pass: {e}" for e in warm.errors]
        warmup_texts = warm.texts
        del warm
        started = time.perf_counter()
    # The job's own objects live until the end: keep them out of the
    # collector's way so its passes cost the same in every pass.
    gc.collect()
    gc.freeze()
    phases = [(plain, budget / 2 if tracer else budget, None)]
    if tracer is not None:
        phases.append((traced, budget, tracer))
    for passes, until, phase_tracer in phases:
        if phase_tracer is not None:
            phase_tracer.install()
        try:
            while True:
                elapsed = time.perf_counter() - started
                if passes and elapsed + passes[-1]["next_s"] > until:
                    break
                one = Pass(job, phase_tracer)
                pass_started = time.perf_counter()
                one.run(seen)
                wall = time.perf_counter() - pass_started
                texts.update(one.texts)
                setup_s = None
                if job.get("setup"):
                    # One set-up sample between passes, so that setup_s
                    # reads the machine across the whole run.
                    setup = job["setup"]
                    setup_s = setup_once(WORKLOADS[setup["workload"]], setup["seed"],
                                         setup["small"], setup["path"])[1]
                passes.append({
                    "wall_s": wall,
                    "setup_s": setup_s,
                    "next_s": wall - one.check_s,
                    "timings": one.timings,
                    "layers": one.layers,
                    "read_ms": one.read_ms,
                    "write_ms": one.write_ms,
                    "errors": one.errors,
                    "ops": one.ops,
                })
                gc.collect()
        finally:
            if phase_tracer is not None:
                phase_tracer.uninstall()
    result = {
        "warmup_errors": warmup_errors,
        "warmup_texts": warmup_texts,
        "texts": texts,
        "passes": plain,
        "traced": traced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(result_path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
