"""Show that the benchmark's correctness checks are not vacuous.

    python3 perfbench/selfcheck.py

On tiny inputs (the workloads' ``small_scale``) it runs one library pass
unchanged, which must pass every check, and then once per sabotage of
the program's output, each of which must fail a check:

* a closure missing one triple (``Store.triples`` drops one);
* a closure with an extra triple (``Store.triples`` adds one);
* a wrong query answer (``Snapshot.solutions`` drops a solution);
* a lost acknowledged write, twice: ``Store.add`` drops the batch in
  the library path, and on ``bsbm-serve`` the write-ahead log and the
  checkpoint are removed before the ``kill -9`` restart.

Then it smoke-tests all four workloads end to end through ``run.py
--small`` with a two-second budget.  Exits non-zero if anything
behaves otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

import run as bench  # noqa: E402
import serve  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS, as_facts, generate  # noqa: E402

from repro import Store  # noqa: E402
from repro.core.store_api import _ReadAPI  # noqa: E402
from repro.rdf import iri, ntriples  # noqa: E402
from repro.rdf.terms import Triple  # noqa: E402


def library_job(work: str, name: str = "bsbm-ingest", seed: int = 3) -> dict:
    workload = WORKLOADS[name]
    triples = generate(workload, seed, small=True)
    ntriples.write_file(triples, os.path.join(work, "input.nt"))
    return bench.library_job(workload, seed, as_facts(triples), work, "input")


def one_pass(job: dict) -> list:
    one = worker.Pass(job)
    one.run({})
    return one.errors + bench.check_texts(one.texts, job["expected"])


def drop_one_triple(triples):
    def patched(self):
        iterator = triples(self)
        next(iterator, None)
        yield from iterator
    return patched


def add_one_triple(triples):
    def patched(self):
        yield from triples(self)
        yield Triple(iri("http://example.org/extra#s"),
                     iri("http://example.org/extra#p"),
                     iri("http://example.org/extra#o"))
    return patched


def drop_one_solution(solutions):
    def patched(self, bgp):
        found = solutions(self, bgp)
        return found[1:] if found else found
    return patched


def lose_adds(add):
    """Drop the update sequence's two-triple adds, keep the input load."""
    def patched(self, triples):
        triples = [triples] if isinstance(triples, Triple) else list(triples)
        if len(triples) <= 2:
            return len(triples)  # acknowledged, never applied
        return add(self, triples)
    return patched


def main() -> int:
    failures = []

    def expect(label: str, errors: list, should_fail: bool) -> None:
        failed = bool(errors)
        verdict = "fails a check" if failed else "passes every check"
        print(f"{label}: {verdict}" + (f" ({errors[0][:100]})" if failed else ""))
        if failed != should_fail:
            failures.append(label)

    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch, prefix="selfcheck-") as work:
        job = library_job(work)
        expect("unchanged program", one_pass(job), False)
        with mock.patch.object(_ReadAPI, "triples", drop_one_triple(_ReadAPI.triples)):
            expect("closure missing one triple", one_pass(job), True)
        with mock.patch.object(_ReadAPI, "triples", add_one_triple(_ReadAPI.triples)):
            expect("closure with an extra triple", one_pass(job), True)
        with mock.patch.object(_ReadAPI, "solutions", drop_one_solution(_ReadAPI.solutions)):
            expect("wrong query answer", one_pass(job), True)
        with mock.patch.object(Store, "add", lose_adds(Store.add)):
            expect("lost acknowledged add (library)", one_pass(job), True)

        workload = WORKLOADS["bsbm-serve"]
        triples = generate(workload, 3, small=True)
        path = os.path.join(work, "serve.nt")
        ntriples.write_file(triples, path)
        serve_job = {
            "input": path, "facts": as_facts(triples), "seed": 3,
            "ruleset": workload.ruleset, "seconds": 1, "trace": False,
            "work": work, "env": bench.program_env(),
        }
        expect("serving, unchanged", serve.run(dict(serve_job))["errors"], False)
        serve_job["before_restart"] = lambda wal: [
            os.unlink(p) for p in (wal, wal + ".checkpoint") if os.path.exists(p)
        ]
        expect("lost acknowledged write (kill -9 restart)",
               serve.run(serve_job)["errors"], True)

    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", "1", "--seconds", "2", "--small"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        ok = done.returncode == 0 and json.loads(
            done.stdout.strip().splitlines()[-1])["correct"]
        print(f"smoke {name}: {'ok' if ok else 'FAILED'}")
        if not ok:
            failures.append(f"smoke {name}: {done.stderr[-500:]}")

    for failure in failures:
        print(f"SELF-CHECK FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
