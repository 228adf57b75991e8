"""Expected closures and query answers, computed apart from the program.

The benchmark never trusts the program to check itself: every closure,
post-update closure and query answer it measures is compared against
this module's results.  The reasoner here shares no code with
``repro``: it works on N-Triples term strings, keeps plain Python set
and dict indexes, and applies the OWL 2 RL rules of the two rulesets
the workloads use (written out below from the OWL 2 RL rule tables)
by semi-naive evaluation.  The BGP matcher is a naive backtracking
search over the same indexes.

Run as a command it rebuilds the expected results of a workload for a
seed from scratch and prints their digests; with ``--baseline`` it also
closes the same input with the repository's independent hash-join
reasoner (``repro.baselines.HashJoinEngine``) and checks that the two
closures are identical::

    python3 perfbench/oracle.py --workload wordnet-plus --seed 1
    python3 perfbench/oracle.py --workload wordnet-plus --seed 1 --baseline --small
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

Term = str  # a term in N-Triples syntax, e.g. "<http://example.org/a>"
Fact = Tuple[Term, Term, Term]

_RDF = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
_RDFS = "http://www.w3.org/2000/01/rdf-schema#"
_OWL = "http://www.w3.org/2002/07/owl#"
TYPE = f"<{_RDF}type>"
SCO = f"<{_RDFS}subClassOf>"
SPO = f"<{_RDFS}subPropertyOf>"
DOM = f"<{_RDFS}domain>"
RNG = f"<{_RDFS}range>"
SAME = f"<{_OWL}sameAs>"
EQC = f"<{_OWL}equivalentClass>"
EQP = f"<{_OWL}equivalentProperty>"
INV = f"<{_OWL}inverseOf>"
TRANSITIVE = f"<{_OWL}TransitiveProperty>"
SYMMETRIC = f"<{_OWL}SymmetricProperty>"
FUNCTIONAL = f"<{_OWL}FunctionalProperty>"
INVERSE_FUNCTIONAL = f"<{_OWL}InverseFunctionalProperty>"

RDFS_DEFAULT = frozenset({
    "CAX-SCO", "PRP-DOM", "PRP-RNG", "PRP-SPO1", "SCM-DOM1", "SCM-DOM2",
    "SCM-RNG1", "SCM-RNG2", "SCM-SCO", "SCM-SPO",
})
RDFS_PLUS = RDFS_DEFAULT | frozenset({
    "CAX-EQC1", "CAX-EQC2", "EQ-REP-O", "EQ-REP-P", "EQ-REP-S", "EQ-SYM",
    "EQ-TRANS", "PRP-EQP1", "PRP-EQP2", "PRP-FP", "PRP-IFP", "PRP-INV1",
    "PRP-INV2", "PRP-SYMP", "PRP-TRP", "SCM-EQC1", "SCM-EQC2", "SCM-EQP1",
    "SCM-EQP2",
})
RULESETS = {"rdfs-default": RDFS_DEFAULT, "rdfs-plus": RDFS_PLUS}

_EMPTY: Dict[Term, Set[Term]] = {}


class Closure:
    """A closed fact set with per-predicate subject and object indexes."""

    def __init__(self, ruleset: str, facts: Iterable[Fact] = ()):
        self.ruleset = ruleset
        self.rules = RULESETS[ruleset]
        self.facts: Set[Fact] = set()
        self._sp: Dict[Term, Dict[Term, Set[Term]]] = {}
        self._op: Dict[Term, Dict[Term, Set[Term]]] = {}
        self.add(facts)

    def copy(self) -> "Closure":
        other = Closure(self.ruleset)
        other.facts = set(self.facts)
        for mine, theirs in ((self._sp, other._sp), (self._op, other._op)):
            for p, index in mine.items():
                theirs[p] = {key: set(values) for key, values in index.items()}
        return other

    # -- indexes ---------------------------------------------------------
    def objects(self, s: Term, p: Term) -> Set[Term]:
        return self._sp.get(p, _EMPTY).get(s, set())

    def subjects(self, p: Term, o: Term) -> Set[Term]:
        return self._op.get(p, _EMPTY).get(o, set())

    def pairs(self, p: Term) -> Iterator[Tuple[Term, Term]]:
        for s, objects in self._sp.get(p, _EMPTY).items():
            for o in objects:
                yield s, o

    def _insert(self, fact: Fact) -> bool:
        if fact in self.facts:
            return False
        self.facts.add(fact)
        s, p, o = fact
        self._sp.setdefault(p, {}).setdefault(s, set()).add(o)
        self._op.setdefault(p, {}).setdefault(o, set()).add(s)
        return True

    # -- semi-naive fixed point -----------------------------------------
    def add(self, facts: Iterable[Fact]) -> None:
        """Add facts and close the set under the ruleset.

        Each round joins the facts new in the previous round (grouped
        by predicate) against every fact known so far.
        """
        delta = [fact for fact in facts if self._insert(fact)]
        while delta:
            by_predicate: Dict[Term, List[Tuple[Term, Term]]] = {}
            for s, p, o in delta:
                by_predicate.setdefault(p, []).append((s, o))
            derived: List[Fact] = []
            for p, pairs in by_predicate.items():
                self._fire(p, pairs, derived)
            fresh = set(derived)
            fresh.difference_update(self.facts)
            delta = [fact for fact in fresh if self._insert(fact)]

    def _fire(
        self, p: Term, pairs: List[Tuple[Term, Term]], out: List[Fact]
    ) -> None:
        """Append the conclusion of every rule with one body atom matched
        by a new fact ``(s, p, o)`` and the others by known facts."""
        rules = self.rules
        has = self.facts.__contains__
        objects, subjects = self.objects, self.subjects
        emit = out.append
        # Instance-level rules: the new fact is the data atom.
        for rule, classes in (("PRP-DOM", DOM), ("PRP-RNG", RNG)):
            if rule in rules:
                for c in objects(p, classes):
                    position = 0 if rule == "PRP-DOM" else 1
                    out.extend((pair[position], TYPE, c) for pair in pairs)
        if "PRP-SPO1" in rules:
            for p2 in objects(p, SPO):
                out.extend((s, p2, o) for s, o in pairs)
        if "PRP-EQP1" in rules:
            for p2 in objects(p, EQP):
                out.extend((s, p2, o) for s, o in pairs)
        if "PRP-EQP2" in rules:
            for p1 in subjects(EQP, p):
                out.extend((s, p1, o) for s, o in pairs)
        if "PRP-INV1" in rules:
            for p2 in objects(p, INV):
                out.extend((o, p2, s) for s, o in pairs)
        if "PRP-INV2" in rules:
            for p1 in subjects(INV, p):
                out.extend((o, p1, s) for s, o in pairs)
        if "PRP-SYMP" in rules and has((p, TYPE, SYMMETRIC)):
            out.extend((o, p, s) for s, o in pairs)
        if "PRP-TRP" in rules and has((p, TYPE, TRANSITIVE)):
            for s, o in pairs:
                for z in objects(o, p):
                    emit((s, p, z))
                for x in subjects(p, s):
                    emit((x, p, o))
        if "PRP-FP" in rules and has((p, TYPE, FUNCTIONAL)):
            for s, o in pairs:
                for y in objects(s, p):
                    emit((o, SAME, y))
                    emit((y, SAME, o))
        if "PRP-IFP" in rules and has((p, TYPE, INVERSE_FUNCTIONAL)):
            for s, o in pairs:
                for x in subjects(p, o):
                    emit((s, SAME, x))
                    emit((x, SAME, s))
        if SAME in self._sp:
            for s, o in pairs:
                if "EQ-REP-S" in rules:
                    for s2 in objects(s, SAME):
                        emit((s2, p, o))
                if "EQ-REP-P" in rules:
                    for p2 in objects(p, SAME):
                        emit((s, p2, o))
                if "EQ-REP-O" in rules:
                    for o2 in objects(o, SAME):
                        emit((s, p, o2))
        # Rules whose other body atom is a data or schema fact keyed on
        # this fact's subject or object.
        if p == TYPE:
            for rule, forward in (
                ("CAX-SCO", self._sp.get(SCO, _EMPTY)),
                ("CAX-EQC1", self._sp.get(EQC, _EMPTY)),
                ("CAX-EQC2", self._op.get(EQC, _EMPTY)),
            ):
                if rule in rules and forward:
                    for s, o in pairs:
                        for c in forward.get(o, ()):
                            emit((s, TYPE, c))
            for s, o in pairs:
                if o == TRANSITIVE and "PRP-TRP" in rules:
                    for x, y in self.pairs(s):
                        for z in objects(y, s):
                            emit((x, s, z))
                elif o == SYMMETRIC and "PRP-SYMP" in rules:
                    for x, y in self.pairs(s):
                        emit((y, s, x))
                elif o == FUNCTIONAL and "PRP-FP" in rules:
                    for ys in self._sp.get(s, _EMPTY).values():
                        for y1 in ys:
                            for y2 in ys:
                                emit((y1, SAME, y2))
                elif o == INVERSE_FUNCTIONAL and "PRP-IFP" in rules:
                    for xs in self._op.get(s, _EMPTY).values():
                        for x1 in xs:
                            for x2 in xs:
                                emit((x1, SAME, x2))
        elif p == SCO:
            for s, o in pairs:
                if "CAX-SCO" in rules:
                    for x in subjects(TYPE, s):
                        emit((x, TYPE, o))
                if "SCM-SCO" in rules:
                    for c in objects(o, SCO):
                        emit((s, SCO, c))
                    for c in subjects(SCO, s):
                        emit((c, SCO, o))
                if "SCM-DOM1" in rules:
                    for q in subjects(DOM, s):
                        emit((q, DOM, o))
                if "SCM-RNG1" in rules:
                    for q in subjects(RNG, s):
                        emit((q, RNG, o))
                if "SCM-EQC2" in rules and has((o, SCO, s)):
                    emit((s, EQC, o))
                    emit((o, EQC, s))
        elif p == SPO:
            for s, o in pairs:
                if "PRP-SPO1" in rules:
                    for x, y in self.pairs(s):
                        emit((x, o, y))
                if "SCM-SPO" in rules:
                    for q in objects(o, SPO):
                        emit((s, SPO, q))
                    for q in subjects(SPO, s):
                        emit((q, SPO, o))
                if "SCM-DOM2" in rules:
                    for c in objects(o, DOM):
                        emit((s, DOM, c))
                if "SCM-RNG2" in rules:
                    for c in objects(o, RNG):
                        emit((s, RNG, c))
                if "SCM-EQP2" in rules and has((o, SPO, s)):
                    emit((s, EQP, o))
                    emit((o, EQP, s))
        elif p == DOM:
            for s, o in pairs:
                if "PRP-DOM" in rules:
                    for x in self._sp.get(s, _EMPTY):
                        emit((x, TYPE, o))
                if "SCM-DOM1" in rules:
                    for c in objects(o, SCO):
                        emit((s, DOM, c))
                if "SCM-DOM2" in rules:
                    for q in subjects(SPO, s):
                        emit((q, DOM, o))
        elif p == RNG:
            for s, o in pairs:
                if "PRP-RNG" in rules:
                    for y in self._op.get(s, _EMPTY):
                        emit((y, TYPE, o))
                if "SCM-RNG1" in rules:
                    for c in objects(o, SCO):
                        emit((s, RNG, c))
                if "SCM-RNG2" in rules:
                    for q in subjects(SPO, s):
                        emit((q, RNG, o))
        elif p == EQC:
            for s, o in pairs:
                if "CAX-EQC1" in rules:
                    for x in subjects(TYPE, s):
                        emit((x, TYPE, o))
                if "CAX-EQC2" in rules:
                    for x in subjects(TYPE, o):
                        emit((x, TYPE, s))
                if "SCM-EQC1" in rules:
                    emit((s, SCO, o))
                    emit((o, SCO, s))
        elif p == EQP:
            for s, o in pairs:
                if "PRP-EQP1" in rules:
                    for x, y in self.pairs(s):
                        emit((x, o, y))
                if "PRP-EQP2" in rules:
                    for x, y in self.pairs(o):
                        emit((x, s, y))
                if "SCM-EQP1" in rules:
                    emit((s, SPO, o))
                    emit((o, SPO, s))
        elif p == INV:
            for s, o in pairs:
                if "PRP-INV1" in rules:
                    for x, y in self.pairs(s):
                        emit((y, o, x))
                if "PRP-INV2" in rules:
                    for x, y in self.pairs(o):
                        emit((y, s, x))
        elif p == SAME:
            for s, o in pairs:
                if "EQ-SYM" in rules:
                    emit((o, SAME, s))
                if "EQ-TRANS" in rules:
                    for z in objects(o, SAME):
                        emit((s, SAME, z))
                    for x in subjects(SAME, s):
                        emit((x, SAME, o))
                for a, b, c in self.facts:
                    if "EQ-REP-S" in rules and a == s:
                        emit((o, b, c))
                    if "EQ-REP-P" in rules and b == s:
                        emit((a, o, c))
                    if "EQ-REP-O" in rules and c == s:
                        emit((a, b, o))

    # -- outputs ---------------------------------------------------------
    def lines(self) -> List[str]:
        return [f"{s} {p} {o} ." for s, p, o in self.facts]

    def digest(self) -> str:
        return lines_digest(self.lines())


def lines_digest(lines: Iterable[str]) -> str:
    """``count:sha256`` of the sorted, de-duplicated N-Triples lines."""
    ordered = sorted(set(lines))
    hasher = hashlib.sha256()
    for line in ordered:
        hasher.update(line.encode("utf-8"))
        hasher.update(b"\n")
    return f"{len(ordered)}:{hasher.hexdigest()}"


# ----------------------------------------------------------------------
# BGP answers
# ----------------------------------------------------------------------
def parse_bgp(text: str) -> List[Tuple[Term, Term, Term]]:
    """Split the benchmark's BGP strings (``?var``, ``<iri>`` and ``a``
    tokens, statements separated by `` . ``) into patterns."""
    patterns = []
    for statement in text.split(" . "):
        tokens = statement.split()
        if len(tokens) != 3:
            raise ValueError(f"bad pattern {statement!r} in {text!r}")
        patterns.append(tuple(TYPE if t == "a" else t for t in tokens))
    return patterns


def answers(closure: Closure, text: str) -> List[Tuple[Term, ...]]:
    """Every solution of a BGP, as tuples of terms in sorted-variable
    order, sorted."""
    patterns = parse_bgp(text)
    names = sorted({t for pattern in patterns for t in pattern if t[0] == "?"})
    found: Set[Tuple[Term, ...]] = set()

    def candidates(pattern, binding) -> Iterator[Fact]:
        s, p, o = (binding.get(t, t) if t[0] == "?" else t for t in pattern)
        if p[0] == "?":
            for fact in list(closure.facts):
                yield fact
        elif s[0] != "?":
            for obj in closure.objects(s, p):
                yield s, p, obj
        elif o[0] != "?":
            for subj in closure.subjects(p, o):
                yield subj, p, o
        else:
            for subj, obj in closure.pairs(p):
                yield subj, p, obj

    def search(index: int, binding: Dict[Term, Term]) -> None:
        if index == len(patterns):
            found.add(tuple(binding[name] for name in names))
            return
        pattern = patterns[index]
        for fact in candidates(pattern, binding):
            extended = dict(binding)
            for slot, value in zip(pattern, fact):
                if slot[0] == "?":
                    if extended.setdefault(slot, value) != value:
                        break
                elif slot != value:
                    break
            else:
                search(index + 1, extended)

    search(0, {})
    return sorted(found)


def answer_digest(rows: Iterable[Tuple[Term, ...]]) -> str:
    """``count:sha256`` of a BGP answer given as term tuples."""
    ordered = sorted(rows)
    hasher = hashlib.sha256()
    for row in ordered:
        hasher.update("\t".join(row).encode("utf-8"))
        hasher.update(b"\n")
    return f"{len(ordered)}:{hasher.hexdigest()}"


def expected_library(
    ruleset: str,
    asserted: Sequence[Fact],
    queries: Sequence[str],
    steps: Sequence[dict],
) -> dict:
    """Expected results of one library pass.

    The closure digest of the input, the answer digest of every query
    over it, the answer of the read after every update step, and the
    closure digest once the whole sequence is applied.  An add extends
    the previous closure; a remove recomputes the closure of what stays
    asserted.
    """
    current = dict.fromkeys(tuple(f) for f in asserted)
    closure = Closure(ruleset, current)
    expected = {
        "closure": closure.digest(),
        "queries": [answer_digest(answers(closure, q)) for q in queries],
        "steps": [],
    }
    for step in steps:
        facts = [tuple(f) for f in step["facts"]]
        if step["kind"] == "add":
            current.update(dict.fromkeys(facts))
            closure.add(facts)
        else:
            for fact in facts:
                current.pop(fact, None)
            closure = Closure(ruleset, current)
        expected["steps"].append(answer_digest(answers(closure, step["read"])))
    expected["final"] = closure.digest()
    return expected


def main(argv=None) -> int:
    """Rebuild a workload's expected results for a seed and print them."""
    import argparse
    import json
    import os
    import sys
    import time

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    from workloads import (
        WORKLOADS, as_facts, generate, query_batch, update_steps,
    )

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--small", action="store_true",
                        help="the workload's small input")
    parser.add_argument("--baseline", action="store_true",
                        help="also close the input with the repository's "
                        "hash-join reasoner and compare the closures")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    triples = generate(workload, args.seed, args.small)
    facts = as_facts(triples)
    started = time.perf_counter()
    if workload.serve:
        closure = Closure(workload.ruleset, facts)
        expected = {"closure": closure.digest()}
    else:
        expected = expected_library(
            workload.ruleset, facts,
            query_batch(workload, args.seed, facts),
            update_steps(workload, args.seed, facts),
        )
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "asserted": len(set(facts)),
        "closure": expected["closure"],
        "final": expected.get("final"),
        "queries": len(expected.get("queries", ())),
        "queries_sha256": hashlib.sha256(
            "\n".join(expected.get("queries", ())).encode()
        ).hexdigest(),
        "steps": expected.get("steps"),
        "oracle_s": round(time.perf_counter() - started, 3),
    }
    if args.baseline:
        from repro.baselines import HashJoinEngine

        started = time.perf_counter()
        engine = HashJoinEngine(workload.ruleset)
        engine.load_triples(triples)
        engine.materialize()
        baseline = lines_digest(t.n3() for t in engine.triples())
        report["hashjoin_closure"] = baseline
        report["hashjoin_s"] = round(time.perf_counter() - started, 3)
        report["hashjoin_agrees"] = baseline == expected["closure"]
    print(json.dumps(report, indent=2))
    return 0 if report.get("hashjoin_agrees", True) else 1


if __name__ == "__main__":
    raise SystemExit(main())
