"""The four workloads: inputs, query batches and update sequences.

Everything here is a pure function of the workload and the seed, so the
same seed gives the same N-Triples file, the same reads and the same
writes.  The program under test only ever receives the generated
N-Triples (as a file, or as HTTP request bodies).
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.datasets.bsbm import bsbm_like
from repro.datasets.realworld import wikipedia_like, wordnet_like
from repro.rdf import ntriples as nt_io
from repro.rdf.terms import Triple

Fact = Tuple[str, str, str]

BSBM = "http://example.org/bsbm#"
RW = "http://example.org/rw#"
TYPE = "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str  # "bsbm" | "wordnet" | "wikipedia"
    scale: int
    small_scale: int
    ruleset: str
    materialize: str  # "full" | "hybrid"
    serve: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("bsbm-ingest", "bsbm", 2000, 300, "rdfs-default", "full"),
        Workload("wordnet-plus", "wordnet", 60, 8, "rdfs-plus", "full"),
        Workload("wiki-hybrid", "wikipedia", 60, 8, "rdfs-default", "hybrid"),
        Workload(
            "bsbm-serve", "bsbm", 2000, 300, "rdfs-default", "full",
            serve=True,
        ),
    )
}

_GENERATORS = {
    "bsbm": bsbm_like,
    "wordnet": wordnet_like,
    "wikipedia": wikipedia_like,
}


def generate(workload: Workload, seed: int, small: bool = False) -> List[Triple]:
    scale = workload.small_scale if small else workload.scale
    return _GENERATORS[workload.generator](scale, seed=seed)


def setup_once(workload: Workload, seed: int, small: bool, path: str):
    """One set-up: generate the input and write it as N-Triples;
    returns (triples, seconds)."""
    gc.collect()
    started = time.perf_counter()
    triples = generate(workload, seed, small)
    nt_io.write_file(triples, path)
    return triples, time.perf_counter() - started


def as_facts(triples: Sequence[Triple]) -> List[Fact]:
    return [(t.subject.n3(), t.predicate.n3(), t.object.n3()) for t in triples]


def ntriples(facts: Sequence[Fact]) -> str:
    return "".join(f"{s} {p} {o} .\n" for s, p, o in facts)


def _of_type(facts: Sequence[Fact], prefix: str) -> List[str]:
    """Subjects typed in the input whose IRI starts with ``prefix``."""
    return sorted({s for s, p, _ in facts if p == TYPE and s.startswith(prefix)})


def _objects(facts: Sequence[Fact], predicate: str) -> List[str]:
    return sorted({o for _, p, o in facts if p == predicate})


# ----------------------------------------------------------------------
# Library workloads: a read batch and an update sequence
# ----------------------------------------------------------------------
def query_batch(workload: Workload, seed: int, facts: Sequence[Fact]) -> List[str]:
    """The seeded BGP batch one pass runs through ``Snapshot.solutions``."""
    rng = random.Random(f"queries/{workload.name}/{seed}")
    if workload.generator == "bsbm":
        products = _of_type(facts, f"<{BSBM}Product")
        types = _objects(facts, TYPE)
        offer_of, vendor = f"<{BSBM}offerOf>", f"<{BSBM}vendor>"
        review_for, reviewer = f"<{BSBM}reviewFor>", f"<{BSBM}reviewer>"
        producer = f"<{BSBM}producer>"
        shapes = [
            lambda: f"{rng.choice(products)} a ?t",
            lambda: f"?o {offer_of} {rng.choice(products)} . ?o {vendor} ?v",
            lambda: f"?r {review_for} {rng.choice(products)} . ?r {reviewer} ?who",
            lambda: f"{rng.choice(products)} {producer} ?m . ?m a ?t",
        ]
        extent = lambda: f"?x a {rng.choice(types)}"  # noqa: E731
        n_queries = 1000
    elif workload.generator == "wordnet":
        words = _of_type(facts, f"<{RW}word")
        synsets = _objects(facts, TYPE)
        hypernym = f"<{RW}hypernymOf>"
        hyponym = f"<{RW}hyponymOf>"
        shapes = [
            lambda: f"{rng.choice(words)} a ?c",
            lambda: f"{rng.choice(words)} {hypernym} ?w",
            lambda: f"?w {hyponym} {rng.choice(words)} . ?w a ?c",
        ]
        extent = lambda: f"?x a {rng.choice(synsets)}"  # noqa: E731
        n_queries = 1000
    else:
        articles = _of_type(facts, f"<{RW}article")
        categories = _objects(facts, TYPE)
        links = f"<{RW}linksTo>"
        shapes = [
            lambda: f"{rng.choice(articles)} a ?c",
            lambda: f"{rng.choice(articles)} {links} ?y . ?y a ?c",
        ]
        extent = lambda: f"?x a {rng.choice(categories)}"  # noqa: E731
        n_queries = 600
    batch = []
    for index in range(n_queries):
        batch.append(extent() if index % 10 == 9 else rng.choice(shapes)())
    return batch


def update_steps(workload: Workload, seed: int, facts: Sequence[Fact]) -> List[dict]:
    """The seeded update sequence: small adds and single-triple removes
    of asserted triples, each followed by a read of what changed."""
    rng = random.Random(f"updates/{workload.name}/{seed}")
    steps: List[dict] = []
    if workload.generator == "bsbm":
        leaves = _objects(
            [f for f in facts if f[0].startswith(f"<{BSBM}Product") and f[1] == TYPE],
            TYPE,
        )
        producers = _of_type(facts, f"<{BSBM}Producer")
        removable = [f for f in facts if f[1] == f"<{BSBM}productFeature>"]

        def add(index: int) -> dict:
            node = f"<{BSBM}BenchProduct{index}>"
            return _step("add", [
                (node, TYPE, rng.choice(leaves)),
                (node, f"<{BSBM}producer>", rng.choice(producers)),
            ], f"{node} a ?t")

        def remove() -> dict:
            fact = next(removals)
            return _step("remove", [fact], f"{fact[0]} ?p {fact[2]}")
    elif workload.generator == "wordnet":
        synsets = _objects(facts, TYPE)
        words = _of_type(facts, f"<{RW}word")
        removable = [
            f for f in facts if f[1] == f"<{RW}hypernymOf>"
        ] or [f for f in facts if f[1] == TYPE]

        def add(index: int) -> dict:
            node = f"<{RW}benchWord{index}>"
            return _step("add", [
                (node, TYPE, rng.choice(synsets)),
                (node, f"<{RW}hypernymOf>", rng.choice(words)),
            ], f"{node} <{RW}hypernymOf> ?w . ?w a ?c")

        def remove() -> dict:
            fact = next(removals)
            return _step("remove", [fact], f"{fact[0]} <{RW}hypernymOf> ?w")
    else:
        categories = _objects(facts, TYPE)
        articles = _of_type(facts, f"<{RW}article")
        removable = [f for f in facts if f[1] == TYPE]

        def add(index: int) -> dict:
            node = f"<{RW}benchArticle{index}>"
            return _step("add", [
                (node, TYPE, rng.choice(categories)),
                (node, f"<{RW}linksTo>", rng.choice(articles)),
            ], f"{node} a ?c")

        def remove() -> dict:
            fact = next(removals)
            return _step("remove", [fact], f"{fact[0]} a ?c")
    removals = iter(rng.sample(removable, 2))
    for index in range(8):
        steps.append(remove() if index in (3, 7) else add(index))
    return steps


def _step(kind: str, facts: List[Fact], read: str) -> dict:
    return {"kind": kind, "facts": facts, "read": read}


# ----------------------------------------------------------------------
# The serving workload's closed loop
# ----------------------------------------------------------------------
#: Reads per write, and passes the oracle prepares answers for.
READS_PER_WRITE = 10
WRITES_PER_PASS = 8
MAX_PASSES = 100


def serve_schedule(seed: int, facts: Sequence[Fact], closure: set) -> List[List[dict]]:
    """``MAX_PASSES`` passes of the serving client's closed loop.

    A pass is ``WRITES_PER_PASS`` rounds of ``READS_PER_WRITE`` reads
    followed by one ``?wait=1`` write: seven adds of a fresh product
    and, as the eighth write, the removal of one of the pass's adds.
    The read that follows a write reads the written product back.
    Reads are point and two-pattern BGPs with a constant; one read in
    twenty is the class extent ``?p a bsbm:Product`` with ``limit=100``.

    Fresh products only link to resources the input already types the
    same way (``closure`` holds the input's closure), so
    an add derives facts about the fresh product alone.
    """
    rng = random.Random(f"serve/{seed}")
    products = _of_type(facts, f"<{BSBM}Product")
    leaves = _objects(
        [f for f in facts if f[0].startswith(f"<{BSBM}Product") and f[1] == TYPE],
        TYPE,
    )
    producers = [
        p for p in _of_type(facts, f"<{BSBM}Producer")
        if (p, TYPE, f"<{BSBM}Producer>") in closure
    ]
    offer_of, vendor = f"<{BSBM}offerOf>", f"<{BSBM}vendor>"
    review_for, reviewer = f"<{BSBM}reviewFor>", f"<{BSBM}reviewer>"
    shapes = [
        lambda: f"{rng.choice(products)} a ?t",
        lambda: f"?o {offer_of} {rng.choice(products)} . ?o {vendor} ?v",
        lambda: f"?r {review_for} {rng.choice(products)} . ?r {reviewer} ?who",
    ]
    extent = f"?p a <{BSBM}Product>"
    passes = []
    for pass_index in range(MAX_PASSES):
        ops: List[dict] = []
        added: List[dict] = []
        n_reads = 0
        for write_index in range(WRITES_PER_PASS):
            for _ in range(READS_PER_WRITE - (1 if ops else 0)):
                n_reads += 1
                if n_reads % 20 == 0:
                    ops.append({"op": "read", "q": extent, "limit": 100})
                else:
                    ops.append({"op": "read", "q": rng.choice(shapes)()})
            if write_index == WRITES_PER_PASS - 1:
                target = rng.choice(added)
                write = {"op": "remove", "facts": target["facts"],
                         "node": target["node"]}
            else:
                node = f"<{BSBM}ServedProduct{pass_index}_{write_index}>"
                write = {"op": "add", "node": node, "facts": [
                    (node, TYPE, rng.choice(leaves)),
                    (node, f"<{BSBM}producer>", rng.choice(producers)),
                ]}
                added.append(write)
            ops.append(write)
            ops.append({"op": "read", "q": f"{write['node']} a ?t",
                        "after_write": True})
            n_reads += 1
        passes.append(ops)
    return passes
