"""Traced EVE batch: one span per EVE layer, with its Spark jobs and stages.

:func:`traced_batch` calls the four public layer functions in the order and
with the arguments ``repro.core.eve.eve_spg_batch`` uses:

- ``bfs``: ``graphs.bfs.batch_distance_maps``;
- ``essential``: ``core.essential.propagate``, forward and backward;
- ``labeling``: ``core.labeling.label_edges``, then the collect of the rows
  with label >= 1;
- ``verify``: ``core.verify.batch_verify`` (not called for k <= 4, as in
  ``eve_spg_batch``).

Each layer's output is materialised at the layer boundary, so its span holds
its own Spark work. Each span runs under its own Spark job group; the
layer's job and stage counts are read back right after the span ends,
before the status store (``spark.ui.retainedJobs``/``retainedStages``) can
drop them. Row counts and the driver-side ``verify_kernel`` timing are taken
after the four spans, under a separate job group, so they do not count
towards any layer. Spans are kept in memory by :class:`LayerTracer`.
"""
from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Sequence, Set, Tuple

LAYERS = ("bfs", "essential", "labeling", "verify")

Edge = Tuple[int, int]


class LayerTracer:
    """Spans around the calls into each layer, one trace per batch."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self.spans: List[dict] = []
        self._origin = time.perf_counter()
        self._batches = 0

    def new_trace(self) -> str:
        self._batches += 1
        return f"b{self._batches}"

    @contextmanager
    def span(self, trace_id: str, name: str, parent: str | None = None):
        group = f"evebench-{trace_id}-{name}"
        self.sc.setJobGroup(group, name)
        span = {
            "trace": trace_id,
            "name": name,
            "parent": parent,
            "start": time.perf_counter() - self._origin,
        }
        try:
            yield span
        finally:
            span["end"] = time.perf_counter() - self._origin
            self.sc.setJobGroup(f"evebench-{trace_id}-outside", "outside")
            span["jobs"], span["stages"] = job_stage_counts(self.sc, group)
            self.spans.append(span)


def job_stage_counts(sc, group: str, timeout_s: float = 10.0) -> Tuple[int, int]:
    """Jobs and executed (not skipped) stages of a finished job group.

    The status store is fed by an asynchronous listener, so wait until it
    has seen every job of the group end.
    """
    st = sc.statusTracker()
    deadline = time.monotonic() + timeout_s
    while True:
        jobs = [st.getJobInfo(j) for j in st.getJobIdsForGroup(group)]
        if all(j is not None and j.status in ("SUCCEEDED", "FAILED") for j in jobs):
            break
        if time.monotonic() > deadline:
            raise RuntimeError(f"jobs of {group} did not finish in the status store")
        time.sleep(0.01)
    stage_ids = {s for j in jobs for s in j.stageIds}
    ran = 0
    for sid in stage_ids:
        info = st.getStageInfo(sid)
        if info is not None and info.numCompletedTasks > 0:
            ran += 1
    return len(jobs), ran


def traced_batch(spark, edges, query_pairs: Sequence[Tuple[int, int]], k: int, tracer: LayerTracer):
    """One traced EVE batch → (layer metrics, per-query (SPG, SPG^u) edge sets)."""
    from pyspark.sql import functions as F

    from repro.core.essential import backward_roles, forward_roles, propagate
    from repro.core.labeling import label_edges
    from repro.core.verify import (
        batch_verify,
        build_adjacency,
        departures_arrivals,
        search_orders,
        verify_kernel,
    )
    from repro.graphs.bfs import batch_distance_maps, queries_df
    from repro.graphs.model import reverse_edges
    from repro.spark_util import DFPin

    trace_id = tracer.new_trace()
    n = len(query_pairs)
    pin = DFPin()
    try:
        with tracer.span(trace_id, "batch") as root:
            queries = queries_df(spark, query_pairs)
            with tracer.span(trace_id, "bfs", "batch"):
                dist_s, dist_t = batch_distance_maps(
                    spark, edges, queries, k, mode="bidirectional", pin=pin
                )
                dist_s.count(), dist_t.count()
            with tracer.span(trace_id, "essential", "batch"):
                evf = propagate(
                    spark, edges, forward_roles(queries), k,
                    dist_prune=dist_t, impl="relational", pin=pin,
                )
                evb = propagate(
                    spark, reverse_edges(edges), backward_roles(queries), k,
                    dist_prune=dist_s, impl="relational", pin=pin,
                )
                evf, evb = pin(evf), pin(evb)
                evf.count(), evb.count()
            with tracer.span(trace_id, "labeling", "batch"):
                labels = label_edges(spark, edges, evf, evb, queries, k)
                lab_rows = labels.where("label >= 1").collect()
            definite: Dict[int, Set[Edge]] = {q: set() for q in range(n)}
            undetermined: Dict[int, Set[Edge]] = {q: set() for q in range(n)}
            for r in lab_rows:
                e = (int(r["src"]), int(r["dst"]))
                (definite if r["label"] == 2 else undetermined)[int(r["qid"])].add(e)
            per_query = {
                q: (
                    sorted(definite[q] | undetermined[q]),
                    sorted(undetermined[q]),
                    query_pairs[q][0],
                    query_pairs[q][1],
                )
                for q in range(n)
            }
            with tracer.span(trace_id, "verify", "batch"):
                confirmed = (
                    batch_verify(spark, per_query, k, order=True, distributed=None)
                    if k > 4
                    else {q: set() for q in range(n)}
                )
        spans = {s["name"]: s for s in tracer.spans if s["trace"] == trace_id}

        # Counts at the layer boundaries, outside every layer's span.
        spark.sparkContext.setJobGroup(f"evebench-{trace_id}-counts", "counts")
        bfs_levels = {
            int(r["dist"]): int(r["count"])
            for r in dist_s.select("dist").unionAll(dist_t.select("dist"))
            .groupBy("dist").count().collect()
        }
        ev_layers = {
            int(r["l"]): (int(r["rows"]), int(r["elems"]))
            for r in evf.unionByName(evb).groupBy("l")
            .agg(F.count("*").alias("rows"), F.sum(F.size("ev")).alias("elems"))
            .collect()
        }
    finally:
        pin.release()

    kernel_s = 0.0
    if k > 4:
        for q, (spgu, und, s, t) in per_query.items():
            if not und:
                continue
            D, A, in_d, out_a = departures_arrivals(spgu, s, t, k)
            out_adj, in_adj = search_orders(*build_adjacency(spgu), D, A, in_d, out_a)
            t0 = time.perf_counter()
            verify_kernel(out_adj, in_adj, und, D, A, in_d, out_a, k, s, t)
            kernel_s += time.perf_counter() - t0

    answers = [
        (definite[q] | confirmed.get(q, set()), definite[q] | undetermined[q])
        for q in range(n)
    ]
    n_undet = sum(len(u) for u in undetermined.values())
    n_conf = sum(len(c) for c in confirmed.values())
    m = {"total_s": root["end"] - root["start"]}
    for name in LAYERS:
        sp = spans[name]
        m[f"{name}.s"] = sp["end"] - sp["start"]
        m[f"{name}.jobs"] = sp["jobs"]
        m[f"{name}.stages"] = sp["stages"]
        m[f"{name}.s_per_stage"] = m[f"{name}.s"] / sp["stages"] if sp["stages"] else 0.0
    m["bfs.rows"] = sum(bfs_levels.values())
    m["bfs.levels"] = bfs_levels
    m["essential.rows"] = sum(r for r, _ in ev_layers.values())
    m["essential.layers"] = {l: r for l, (r, _) in ev_layers.items()}
    m["essential.ev_elems"] = sum(e for _, e in ev_layers.values())
    m["labeling.upper_edges"] = len(lab_rows)
    m["labeling.definite"] = sum(len(d) for d in definite.values())
    m["labeling.undetermined"] = n_undet
    m["verify.confirmed"] = n_conf
    # Base: labeling.undetermined; 0 when there is nothing to verify.
    m["verify.yield"] = n_conf / n_undet if n_undet else 0.0
    m["verify.kernel_s"] = kernel_s
    m["verify.overhead_s"] = m["verify.s"] - kernel_s
    # Only batch_verify's distributed path runs Spark jobs.
    m["verify.distributed"] = int(m["verify.jobs"] > 0)
    root["metrics"] = m
    return m, answers


#: Units of the metrics every layer reports.
UNITS = {"s": "s", "jobs": "count", "stages": "count", "s_per_stage": "s/stage"}


def summarise(traced: List[dict], untraced_p50: float, k_max: int) -> Dict[str, dict]:
    """Median of each per-layer metric over the traced batches of a run."""

    def med(get) -> float:
        return statistics.median(get(m) for m in traced)

    out: Dict[str, dict] = {}
    for name in LAYERS:
        for key, unit in UNITS.items():
            out[f"{name}.{key}"] = {"value": med(lambda m: m[f"{name}.{key}"]), "unit": unit}
    out["bfs.rows"] = {"value": med(lambda m: m["bfs.rows"]), "unit": "rows"}
    for d in range(k_max + 1):
        out[f"bfs.rows.d{d}"] = {"value": med(lambda m: m["bfs.levels"].get(d, 0)), "unit": "rows"}
    out["essential.rows"] = {"value": med(lambda m: m["essential.rows"]), "unit": "rows"}
    for l in range(k_max):
        out[f"essential.rows.l{l}"] = {
            "value": med(lambda m: m["essential.layers"].get(l, 0)), "unit": "rows"
        }
    for key, unit in (
        ("essential.ev_elems", "count"),
        ("labeling.upper_edges", "edges"),
        ("labeling.definite", "edges"),
        ("labeling.undetermined", "edges"),
        ("verify.confirmed", "edges"),
        ("verify.yield", "ratio"),
        ("verify.kernel_s", "s"),
        ("verify.overhead_s", "s"),
        ("verify.distributed", "count"),
    ):
        out[key] = {"value": med(lambda m: m[key]), "unit": unit}
    out["trace.overhead_s"] = {"value": med(lambda m: m["total_s"]) - untraced_p50, "unit": "s"}
    return out
