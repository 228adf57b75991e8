"""One benchmark run: N-Triples file to served answer.

    python3 perfbench/run.py --workload bsbm-ingest --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads: ``bsbm-ingest``, ``wordnet-plus``, ``wiki-hybrid``
and ``bsbm-serve`` (see ``workloads.py`` and README.md).

The run generates the input from ``--seed`` (``setup_s`` times that),
computes the expected results with the independent oracle
(``oracle.py``, untimed), then measures whole passes of the workload for
``--seconds`` in a fresh process — ``worker.py`` for the library
workloads, a ``python -m repro serve`` process for ``bsbm-serve`` — and
checks every output.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  The line before it breaks the operation
counts down by class.  ``--small`` runs the same path on tiny inputs
(a smoke test).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

END_TO_END = {
    "setup_s": "s",
    "ingest_s": "s",
    "export_s": "s",
    "query_s": "s",
    "update_s": "s",
    "restart_s": "s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rdf.parse_s": "s",
    "dictionary.encode_s": "s",
    "core.materialize_s": "s",
    "closure.closure_s": "s",
    "rules.inference_s": "s",
    "store.merge_s": "s",
    "rules.iterations": "count",
    "rules.inferred_triples": "count",
    "dictionary.decode_s": "s",
    "rdf.serialize_s": "s",
    "query.eval_s": "s",
    "query.solutions": "count",
    "core.flush_add_ms": "ms",
    "core.flush_remove_ms": "ms",
    "litemat.encode_s": "s",
    "litemat.encodes": "count",
    "core.save_s": "s",
    "core.load_s": "s",
    "memsim.resident_bytes": "B",
    "memsim.bytes_per_triple": "B",
    "store.file_bytes_per_triple": "B",
    "serving.http_p50_ms": "ms",
    "serving.flushes": "count",
    "serving.flush_p50_ms": "ms",
    "serving.wal_appends": "count",
    "serving.checkpoints": "count",
    "serving.wal_append_errors": "count",
    "serving.replayed": "count",
    "serving.held_writes": "count",
    "trace.overhead_pct": "%",
}

#: Set-up runs before and again after the measured part, each time
#: repeated until this much time is spent (and at least
#: ``SETUP_MIN_REPEATS`` times), and once more between the measured
#: passes or cycles; ``setup_s`` is the median of all the samples, so
#: it reads the machine across the whole run.
SETUP_SECONDS = 1.0
SETUP_MIN_REPEATS = 3


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * share // 1))
    return ordered[int(rank) - 1]


def program_env() -> dict:
    """The environment of every process that runs the program: its
    sources on the path and no ``REPRO_*`` overrides, so it runs at its
    default configuration."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


def setup(workload, seed: int, small: bool, path: str, samples: list):
    """Generate the input and write it, repeatedly; appends the times to
    ``samples`` and returns the triples."""
    from workloads import setup_once

    spent, repeats = 0.0, 0
    while repeats < SETUP_MIN_REPEATS or spent < SETUP_SECONDS:
        triples, seconds = setup_once(workload, seed, small, path)
        samples.append(seconds)
        spent, repeats = spent + seconds, repeats + 1
    return triples


def library_job(workload, seed: int, facts, work: str, tag: str) -> dict:
    """A worker job over ``<work>/<tag>.nt``, with the oracle's expected
    results (computed here, untimed)."""
    import oracle
    from workloads import query_batch, update_steps

    queries = query_batch(workload, seed, facts)
    steps = update_steps(workload, seed, facts)
    return {
        "input": os.path.join(work, f"{tag}.nt"),
        "store_file": os.path.join(work, f"{tag}.store"),
        "ruleset": workload.ruleset,
        "materialize": workload.materialize,
        "queries": queries,
        "steps": steps,
        "expected": oracle.expected_library(workload.ruleset, facts, queries, steps),
    }


def check_texts(texts: dict, expected: dict) -> list:
    """Compare the closure files a worker pass wrote (``export``,
    ``final``, ``reloaded``) with the oracle's digests; removes them."""
    import oracle

    errors = []
    for key, path in texts.items():
        want = expected["closure" if key == "export" else "final"]
        with open(path, encoding="utf-8") as handle:
            got = oracle.lines_digest(handle.read().splitlines())
        os.unlink(path)
        if got != want:
            errors.append(f"{key} closure digest: got {got}, expected {want}")
    return errors


def run_worker(job: dict, work: str, seconds: float, trace: bool, warmup=None) -> dict:
    """Run ``worker.py`` on a job in a fresh process; returns its result."""
    job = dict(job, seconds=seconds, trace=trace, warmup=warmup)
    job_path = os.path.join(work, "job.json")
    result_path = os.path.join(work, "result.json")
    with open(job_path, "w") as handle:
        json.dump(job, handle)
    expected = job["expected"], (warmup or {}).get("expected")
    del job
    gc.collect()
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), job_path, result_path],
        env=program_env(), check=True, timeout=seconds + 150,
    )
    with open(result_path) as handle:
        result = json.load(handle)
    result["text_errors"] = (
        check_texts(result["texts"], expected[0])
        + check_texts(result["warmup_texts"], expected[1])
    )
    return result


def warmup_job(workload, seed: int, work: str) -> dict:
    """The same path on the workload's small input: run once before the
    measured passes so lazy imports and allocator growth are not timed."""
    from repro.rdf import ntriples

    from workloads import as_facts, generate

    triples = generate(workload, seed, small=True)
    ntriples.write_file(triples, os.path.join(work, "warmup.nt"))
    return library_job(workload, seed, as_facts(triples), work, "warmup")


def run_library(workload, args, work: str, facts) -> dict:
    job = library_job(workload, args.seed, facts, work, "input")
    job["setup"] = {"workload": workload.name, "seed": args.seed,
                    "small": args.small, "path": os.path.join(work, "setup.nt")}
    warmup = warmup_job(workload, args.seed, work)
    return run_worker(job, work, args.seconds, bool(args.trace), warmup)


def library_metrics(result: dict, trace: bool):
    passes = result["passes"]
    errors = result["warmup_errors"] + result["text_errors"] + [
        e for p in passes + result["traced"] for e in p["errors"]
    ]
    ops = {}
    for p in passes + result["traced"]:
        for kind, count in p["ops"].items():
            ops[kind] = ops.get(kind, 0) + count
    if trace:
        traced = result["traced"] or passes
        metrics = {
            name: statistics.median(p["layers"].get(name, 0.0) for p in traced)
            for name in PER_LAYER
        }
        plain_wall = statistics.median(p["next_s"] for p in passes)
        traced_wall = statistics.median(p["next_s"] for p in traced)
        metrics["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1.0)
        return metrics, ops, errors
    reads = [ms for p in passes for ms in p["read_ms"]]
    writes = [ms for p in passes for ms in p["write_ms"]]
    metrics = {
        name: statistics.median(p["timings"][name] for p in passes)
        for name in ("ingest_s", "export_s", "query_s", "update_s",
                     "restart_s")
    }
    metrics["read_p50_ms"] = percentile(reads, 0.50)
    metrics["read_p99_ms"] = percentile(reads, 0.99)
    metrics["write_p50_ms"] = percentile(writes, 0.50)
    metrics["write_p90_ms"] = percentile(writes, 0.90)
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    return metrics, ops, errors


def run_serve(workload, args, work: str, facts, setup_samples: list):
    import serve
    from workloads import setup_once

    job = {
        "input": os.path.join(work, "input.nt"),
        "facts": facts,
        "seed": args.seed,
        "ruleset": workload.ruleset,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "work": work,
        "env": program_env(),
        "setup": lambda: setup_samples.append(setup_once(
            workload, args.seed, args.small, os.path.join(work, "setup.nt"))[1]),
    }
    out = serve.run(job)
    ops = dict(out["ops"])
    failed = dict(out["failed"])
    if args.trace:
        # The server's own counters come from /stats; the in-process
        # layers come from replaying the first pass of the loop's reads
        # and writes through the library with the tracer installed.
        replay = _serve_replay_job(workload, args, work, facts)
        metrics, replay_ops, errors = library_metrics(replay, True)
        for name, value in out["layers"].items():
            metrics[name] = value
        for kind, count in replay_ops.items():
            ops["replay_" + kind] = count
        return metrics, ops, failed, out["errors"] + errors
    metrics = {
        "ingest_s": statistics.median(out["boot_s"]),
        "export_s": statistics.median(out["dump_s"]),
        "query_s": statistics.median(out["pass_read_s"]),
        "update_s": statistics.median(out["pass_write_s"]),
        "restart_s": statistics.median(out["restart_s"]),
        "read_p50_ms": percentile(out["read_ms"], 0.50),
        "read_p99_ms": percentile(out["read_ms"], 0.99),
        "write_p50_ms": percentile(out["write_ms"], 0.50),
        "write_p90_ms": percentile(out["write_ms"], 0.90),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"]),
    }
    return metrics, ops, failed, out["errors"]


def _serve_replay_job(workload, args, work: str, facts) -> dict:
    """The traced in-process replay of the serving loop's operations."""
    import oracle
    from workloads import serve_schedule

    closure = oracle.Closure(workload.ruleset, facts)
    first = serve_schedule(args.seed, facts, closure.facts)[0]
    del closure
    queries = [op["q"] for op in first if op["op"] == "read"
               and not op.get("after_write")]
    steps = []
    ops = iter(first)
    for op in ops:
        if op["op"] in ("add", "remove"):
            steps.append({"kind": op["op"], "facts": op["facts"],
                          "read": next(ops)["q"]})
    job = {
        "input": os.path.join(work, "input.nt"),
        "store_file": os.path.join(work, "replay.store"),
        "ruleset": workload.ruleset,
        "materialize": workload.materialize,
        "queries": queries,
        "steps": steps,
        "expected": oracle.expected_library(workload.ruleset, facts, queries, steps),
    }
    return run_worker(job, work, args.seconds * 2 / 3, True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="tiny inputs: a smoke test of the whole path")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS, as_facts

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    try:
        setup_samples = []
        triples = setup(workload, args.seed, args.small,
                        os.path.join(work, "input.nt"), setup_samples)
        facts = as_facts(triples)
        del triples
        if workload.serve:
            metrics, ops, failed, errors = run_serve(
                workload, args, work, facts, setup_samples)
        else:
            result = run_library(workload, args, work, facts)
            setup_samples.extend(p["setup_s"] for p in result["passes"])
            metrics, ops, errors = library_metrics(result, bool(args.trace))
            failed = {kind: 0 for kind in ops}
        if not args.trace:
            setup(workload, args.seed, args.small,
                  os.path.join(work, "input.nt"), setup_samples)
            metrics["setup_s"] = statistics.median(setup_samples)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for error in errors[:20]:
        print(f"perfbench: CHECK FAILED: {error}", file=sys.stderr)
    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 3
    print(json.dumps({"operations": {
        kind: {"attempted": ops[kind], "failed": failed.get(kind, 0)}
        for kind in sorted(ops)
    }}))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(ops.values()),
        "failed": sum(failed.values()),
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
