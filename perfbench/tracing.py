"""Per-layer spans for the traced run, recorded from the benchmark side.

The tracer wraps public entry points of the program — the N-Triples
reader ``parse_file`` where ``Store`` calls it,
``InferrayEngine.load_triples`` (dictionary encode and bulk load),
``InferrayEngine.materialize``, ``Query.execute``, the LiteMat
``HierarchyEncoding`` constructor and ``Store.save`` / ``Store.load``
— and keeps each call's duration in memory under a layer name.
Nothing inside the program changes; :meth:`Tracer.uninstall` puts the
original attributes back.
"""

from __future__ import annotations

import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple


class Tracer:
    def __init__(self) -> None:
        self.seconds: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, int] = defaultdict(int)
        self._patches: List[Tuple[object, str, object]] = []

    def record(self, layer: str, seconds: float) -> None:
        self.seconds[layer].append(seconds)

    def total(self, layer: str) -> float:
        return sum(self.seconds.get(layer, ()))

    def reset(self) -> None:
        self.seconds.clear()
        self.counts.clear()

    # ------------------------------------------------------------------
    def _patch(self, owner: object, name: str, wrapper: Callable) -> None:
        original = owner.__dict__[name]
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        from repro.core import store_api
        from repro.core.engine import InferrayEngine
        from repro.litemat.encoder import HierarchyEncoding
        from repro.query.bgp import Query

        tracer = self
        parse_file = store_api.parse_file

        def traced_parse_file(path):
            started = time.perf_counter()
            triples = list(parse_file(path))
            tracer.record("rdf.parse", time.perf_counter() - started)
            return triples

        self._patch(store_api, "parse_file", traced_parse_file)

        def timed(layer: str, function: Callable) -> Callable:
            def wrapper(*args, **kwargs):
                started = time.perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    tracer.record(layer, time.perf_counter() - started)

            return wrapper

        self._patch(
            InferrayEngine, "load_triples",
            timed("dictionary.encode", InferrayEngine.load_triples),
        )
        self._patch(
            InferrayEngine, "materialize",
            timed("core.materialize", InferrayEngine.materialize),
        )
        self._patch(
            store_api.Store, "save", timed("core.save", store_api.Store.save)
        )
        load = store_api.Store.__dict__["load"].__func__
        self._patch(
            store_api.Store, "load", classmethod(timed("core.load", load))
        )

        execute = Query.execute

        def traced_execute(query, engine):
            started = time.perf_counter()
            solutions = list(execute(query, engine))
            tracer.record("query.eval", time.perf_counter() - started)
            tracer.counts["query.solutions"] += len(solutions)
            return iter(solutions)

        self._patch(Query, "execute", traced_execute)

        encoding_init = HierarchyEncoding.__init__

        def traced_encoding_init(encoding, *args, **kwargs):
            started = time.perf_counter()
            try:
                encoding_init(encoding, *args, **kwargs)
            finally:
                tracer.record("litemat.encode", time.perf_counter() - started)
                tracer.counts["litemat.encodes"] += 1

        self._patch(HierarchyEncoding, "__init__", traced_encoding_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
