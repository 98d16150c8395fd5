"""EVE benchmark: times ``repro.core.eve.eve_spg_batch`` from outside the program.

Run from the repository root::

    python3 evebench/run.py --workload dense-k6 --seed 0 --seconds 10 --trace 0

Workloads, Spark settings and the dataset scale live in
``evebench/settings.json``; ``--seed`` draws the workload's query batch with
``repro.graphs.queries.random_queries`` on a seeded Table-2 stand-in. One
client calls ``eve_spg_batch`` on that batch in a closed loop: a cold first
call, which is not measured, then calls until ``--seconds`` of call time
have been measured and, untraced, at least the workload's
``min_warm_calls`` calls have been made, unless the run reaches
``DEADLINE_S``. Every answer is checked against an
oracle computed outside the timed calls, by a per-query hash of the sorted
SPG and SPG^u edge sets.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced calls with traced ones (see ``layers.py``) and reports the
per-layer metrics. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a summary goes to
stderr. The exit code is 0 only if every answer matched the oracle.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shlex
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Set, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for Spark, temp files and the span dump (git-ignored).
WORK = ROOT / ".evebench-work"

Edge = Tuple[int, int]
Query = Tuple[int, int]

#: No warm call starts once a run has taken this long, so that a run ends
#: well within 180 s even while the machine runs slow.
DEADLINE_S = 100.0


def load_settings() -> dict:
    return json.loads((HERE / "settings.json").read_text())


def parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Answers and the oracle.
# ---------------------------------------------------------------------------

def answer_hash(spg: Set[Edge], upper: Set[Edge]) -> str:
    """Hash of one query's sorted SPG and SPG^u edge sets."""
    h = hashlib.sha256()
    h.update(repr(sorted(spg)).encode())
    h.update(b"|")
    h.update(repr(sorted(upper)).encode())
    return h.hexdigest()


def oracle_hashes(adj: dict, queries: Sequence[Query], k: int, oracle: str) -> List[str]:
    """Expected per-query answer hashes.

    ``bruteforce`` enumerates Definition 2.1 directly; it backs only k ≤ 4,
    where SPG^u equals SPG (Theorem 4.8). ``reference_eve`` is the driver-side
    EVE mirror, used where brute force does not finish; it shares
    ``verify_kernel`` with the production path.
    """
    from repro.baselines.bruteforce import spg_edges
    from repro.core.reference import reference_eve

    out = []
    for s, t in queries:
        if oracle == "bruteforce":
            if k > 4:
                raise ValueError("the bruteforce oracle gives SPG^u only for k <= 4")
            spg = upper = spg_edges(adj, s, t, k)
        elif oracle == "reference_eve":
            spg, upper, _, _ = reference_eve(adj, s, t, k)
        else:
            raise ValueError(f"unknown oracle {oracle!r}")
        out.append(answer_hash(spg, upper))
    return out


def count_mismatches(got: Sequence[str], expected: Sequence[str]) -> int:
    return sum(g != e for g, e in zip(got, expected, strict=True))


# ---------------------------------------------------------------------------
# Spark session and process accounting.
# ---------------------------------------------------------------------------

def start_session(cfg: dict):
    """Start Spark through ``repro.bench_harness.make_session``.

    The master and driver memory come from ``settings.json``; ``make_session``
    adds the repo's own session settings and ``tune_runtime``. Two things
    differ from a plain ``make_session`` call: ``src`` goes on ``PYTHONPATH``
    before the JVM starts, so the Python workers that run ``mapInPandas``
    can import ``repro`` too, and everything Spark, the JVM and Python write
    goes under ``WORK`` instead of ``/dev/shm`` and ``/tmp``.
    """
    from repro.bench_harness import make_session
    from repro.spark_util import ensure_session_env

    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    os.environ["SPARK_MASTER"] = cfg["master"]
    os.environ["SPARK_DRIVER_MEM"] = cfg["driver_memory"]
    os.environ.pop("PYSPARK_SUBMIT_ARGS", None)
    ensure_session_env()
    local_dir = shlex.quote(f"spark.local.dir={WORK / 'spark-local'}")
    args, n = re.subn(r"spark\.local\.dir=\S+", local_dir, os.environ["PYSPARK_SUBMIT_ARGS"])
    if n != 1:
        raise RuntimeError(f"no spark.local.dir to redirect in {args!r}")
    java_opts = shlex.quote(f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData")
    os.environ["PYSPARK_SUBMIT_ARGS"] = args.replace(
        "pyspark-shell", f"--driver-java-options {java_opts} pyspark-shell"
    )
    spark = make_session("evebench", cfg["shuffle_partitions"])
    conf = spark.conf
    got = (
        conf.get("spark.master"),
        int(conf.get("spark.sql.shuffle.partitions")),
        conf.get("spark.sql.adaptive.enabled") == "true",
    )
    if got != (cfg["master"], cfg["shuffle_partitions"], cfg["adaptive"]):
        stop_session(spark)
        raise RuntimeError(f"session (master, partitions, AQE) = {got} differs from settings.json")
    return spark


def stop_session(spark) -> None:
    """Stop Spark and wait until the JVM it launched has exited."""
    from pyspark import SparkContext

    gateway = spark.sparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    gateway.shutdown()
    SparkContext._gateway = None
    SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits when its stdin closes
        proc.wait(timeout=60)


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MB."""
    kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as f:
            kb += next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    return kb / 1024


# ---------------------------------------------------------------------------
# The run.
# ---------------------------------------------------------------------------

def build_inputs(spark, wl: dict, dataset: dict, seed: int):
    """Graph generation, edge caching and query generation (``setup_s``)."""
    from repro.graphs.datasets import dataset_edges_pdf
    from repro.graphs.generators import to_spark
    from repro.graphs.queries import random_queries

    pdf = dataset_edges_pdf(wl["dataset"], dataset["scale"], seed=dataset["seed"])
    edges = to_spark(spark, pdf).repartition(len(pdf) // 50_000 + 1).cache()
    edges.count()
    queries = random_queries(pdf, wl["k"], wl["batch"], seed=seed)
    return pdf, edges, queries


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    settings: dict,
    oracle: Callable[[dict, Sequence[Query], int, str], List[str]] = oracle_hashes,
) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    t0 = run_start = time.perf_counter()  # session start includes importing pyspark
    from repro.core.eve import eve_spg_batch
    from repro.graphs.model import adjacency

    import layers

    wl = settings["workloads"][workload]
    k = wl["k"]
    spark = start_session(settings["spark"])
    session_s = time.perf_counter() - t0
    try:
        t0 = time.perf_counter()
        pdf, edges, queries = build_inputs(spark, wl, settings["dataset"], seed)
        data_s = time.perf_counter() - t0
        expected = oracle(adjacency(pdf), queries, k, wl["oracle"])

        attempted = failed = 0
        latencies: List[float] = []
        traced: List[dict] = []
        tracer = layers.LayerTracer(spark.sparkContext)

        def call() -> Tuple[List[str] | None, float]:
            """One timed ``eve_spg_batch`` call → (answer hashes or None, s)."""
            nonlocal attempted, failed
            attempted += len(queries)
            try:
                t0 = time.perf_counter()
                results = eve_spg_batch(spark, edges, queries, k)
                dt = time.perf_counter() - t0
            except Exception:  # a raising call fails each query in its batch
                traceback.print_exc(file=sys.stderr)
                failed += len(queries)
                return None, 0.0
            hashes = [answer_hash(r.spg, r.upper) for r in results]
            failed += count_mismatches(hashes, expected)
            return hashes, dt

        hashes, cold_s = call()  # the cold call, not measured
        min_calls = 1 if trace else wl["min_warm_calls"]
        measured = 0.0  # seconds of timed calls after the cold one, traced ones too
        while (
            hashes is not None
            and (measured < seconds or len(latencies) < min_calls)
            and (not latencies or time.perf_counter() - run_start < DEADLINE_S)
        ):
            hashes, dt = call()
            if hashes is None:
                break
            latencies.append(dt)
            measured += dt
            if not trace or failed:
                continue
            attempted += len(queries)
            try:
                layer_metrics, answers = layers.traced_batch(
                    spark, edges, queries, k, tracer
                )
            except Exception:
                traceback.print_exc(file=sys.stderr)
                failed += len(queries)
                break
            # The trace must measure the same program: same answers as untraced.
            failed += count_mismatches([answer_hash(*a) for a in answers], hashes)
            traced.append(layer_metrics)
            measured += layer_metrics["total_s"]

        rss = peak_rss_mb([os.getpid(), spark._jvm.java.lang.ProcessHandle.current().pid()])
    finally:
        stop_session(spark)

    metrics: Dict[str, dict] = {}
    if latencies and not failed:
        p50 = statistics.median(latencies)
        if trace:
            k_max = max(w["k"] for w in settings["workloads"].values())
            metrics = layers.summarise(traced, p50, k_max)
        else:
            metrics = {
                "setup_s": {"value": session_s + data_s, "unit": "s"},
                "latency_s.p50": {"value": p50, "unit": "s"},
                "queries_per_s": {
                    "value": len(queries) * len(latencies) / sum(latencies),
                    "unit": "1/s",
                },
                "peak_rss_mb": {"value": rss, "unit": "MB"},
            }
    if tracer.spans:
        (WORK / f"trace-{workload}-seed{seed}.json").write_text(
            json.dumps(tracer.spans, indent=1)
        )
    print(
        f"[evebench] workload={workload} seed={seed} k={k} batch={len(queries)} "
        f"samples={len(latencies)} latencies_s={[round(x, 3) for x in latencies]} "
        f"cold_call_s={cold_s:.3f} session_s={session_s:.3f} "
        f"data_setup_s={data_s:.3f} traced_batches={len(traced)} "
        f"attempted={attempted} failed={failed} fail_ratio={failed / attempted:.4f}",
        file=sys.stderr,
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Sequence[str] | None = None, **kwargs) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"evebench: no repro package under {SRC}", file=sys.stderr)
        return 2
    settings = kwargs.pop("settings", None) or load_settings()
    if args.workload not in settings["workloads"]:
        print(f"evebench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    nproc = settings["spark"]["nproc"]
    if os.cpu_count() != nproc:
        print(f"evebench: warning: {os.cpu_count()} CPUs here, settings.json "
              f"records nproc={nproc}", file=sys.stderr)
    sys.path.insert(0, str(SRC))
    result = run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        settings=settings, **kwargs,
    )
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
