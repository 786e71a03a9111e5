"""Which ``repro`` entry points the traced run wraps, and the per-layer
metrics derived from their spans.

Every target is a public function or method of a ``repro`` module.  A few
carry an *observer* that reads the call's arguments or result to count
work at the same boundary (lanes per blocked chunk, accepted transient
points, the backend ``executor="auto"`` chose, cache hits, service job
start/finish).
"""

from __future__ import annotations

import time

from util import nearest_rank


def _transient_points(tracer, args, kwargs, result):
    tracer.count("transient.points", len(result.times))


def _lanes(tracer, args, kwargs, result):
    tracer.count("batched.lanes", len(args[1]))


def _sweep_stats(tracer, args, kwargs, result):
    stats = result.stats
    tracer.count(f"executors.backend.{stats.executor}")
    tracer.count("executors.payload_bytes", stats.payload_bytes)
    tracer.count("executors.chunks", stats.chunks)
    tracer.count("executors.spinup_s", stats.spinup_seconds)
    if stats.chunks:
        tracer.sample("executors.chunk_s", stats.chunk_p99_seconds)


def _cache_get(tracer, args, kwargs, result):
    default = args[2] if len(args) > 2 else kwargs.get("default")
    tracer.count("cache.lookups")
    if result is not default:
        tracer.count("cache.hits")


def _job_started(tracer, args, kwargs, job):
    if job is not None:
        tracer.scratch()["job"] = (job.kind, time.perf_counter_ns(),
                                   tracer.thread_root_ns())


def _job_finished(tracer, args, kwargs, result):
    # ServiceStats.record_finish(ok, latency) runs on the worker thread
    # right after the job body; the execution span is next_job -> here.
    started = tracer.scratch().pop("job", None)
    if started is None:
        return
    kind, start, root_ns = started
    end = time.perf_counter_ns()
    tracer.mark(f"service.job.{kind}", start, end,
                tracer.thread_root_ns() - root_ns)
    tracer.sample(f"service.exec_s.{kind}", (end - start) / 1e9)
    latency = args[2] if len(args) > 2 else kwargs.get("latency_seconds")
    if latency is not None:
        tracer.sample("service.queue_wait_s",
                      max(0.0, latency - (end - start) / 1e9))


ENGINE = "spice.engine"
TARGETS = (
    (ENGINE, "BJTGroup.load", None),
    (ENGINE, "BJTGroup.load_stacked", None),
    (ENGINE, "CompiledCircuit.evaluate", None),
    (ENGINE, "CompiledCircuit.evaluate_stacked", None),
    (ENGINE, "CompiledCircuit.solve", None),
    (ENGINE, "CompiledCircuit.solve_cached", None),
    (ENGINE, "CompiledCircuit.solve_batched", None),
    (ENGINE, "CompiledCircuit.solve_batched_exact", None),
    (ENGINE, "CompiledCircuit.solve_pattern_batched", None),
    ("spice.dcop", "newton_solve", None),
    ("spice.dcop", "newton_solve_batched", None),
    ("spice.transient", "solve_transient", _transient_points),
    ("spice.ac", "solve_ac", None),
    ("spice.ac", "solve_ac_lanes", None),
    ("sweep.batched", "BlockedDCSweep.evaluate_batch", _lanes),
    ("sweep.batched", "BlockedACSweep.evaluate_batch", _lanes),
    ("sweep.orchestrator", "run_sweep", _sweep_stats),
    ("sweep.executors", "SerialExecutor.map_chunks", None),
    ("sweep.executors", "ThreadExecutor.map_chunks", None),
    ("sweep.executors", "ProcessExecutor.map_chunks", None),
    ("sweep.cache", "ResultCache.get", _cache_get),
    ("verify.harness", "CornerEvaluator.prime", None),
    ("verify.harness", "CornerEvaluator.evaluate_batch", None),
    ("verify.harness", "qualify_deck", None),
    ("verify.stress", "check_stress", None),
    ("rfsystems.image_rejection", "simulate_image_rejection_db", None),
    ("rfsystems.image_rejection", "fig5_sweep", None),
    ("behavioral.system", "SystemModel.run", None),
    ("devices.ft", "ft_curve", None),
    ("service.server", "SimulationService.create_circuit", None),
)

#: Calls watched without a span of their own: a worker blocks in
#: ``next_job`` while idle, so only the job's start and finish are read.
OBSERVERS = (
    ("service.jobs", "JobQueue.next_job", _job_started),
    ("service.stats", "ServiceStats.record_finish", _job_finished),
)

#: (span, stats) pairs reported as ``<span>.<stat>``.
SPAN_STATS = (
    ("spice.engine.BJTGroup.load", ("calls", "busy_s", "self_s")),
    ("spice.engine.BJTGroup.load_stacked", ("calls", "self_s")),
    ("spice.engine.CompiledCircuit.evaluate", ("calls", "self_s")),
    ("spice.engine.CompiledCircuit.evaluate_stacked", ("calls", "self_s")),
    ("spice.engine.CompiledCircuit.solve", ("calls", "self_s")),
    ("spice.engine.CompiledCircuit.solve_cached", ("calls", "self_s")),
    ("spice.engine.CompiledCircuit.solve_batched", ("calls", "self_s")),
    ("spice.engine.CompiledCircuit.solve_batched_exact",
     ("calls", "self_s")),
    ("spice.engine.CompiledCircuit.solve_pattern_batched",
     ("calls", "self_s")),
    ("spice.dcop.newton_solve", ("calls", "self_s")),
    ("spice.dcop.newton_solve_batched", ("calls", "self_s")),
    ("spice.transient.solve_transient", ("calls", "busy_s", "self_s")),
    ("spice.ac.solve_ac", ("calls", "self_s")),
    ("spice.ac.solve_ac_lanes", ("calls", "self_s")),
    ("sweep.batched.BlockedDCSweep.evaluate_batch", ("calls", "busy_s")),
    ("sweep.batched.BlockedACSweep.evaluate_batch", ("calls", "busy_s")),
    ("sweep.orchestrator.run_sweep", ("calls", "busy_s", "self_s")),
    ("sweep.cache.ResultCache.get", ("calls",)),
    ("verify.harness.CornerEvaluator.prime", ("calls", "busy_s")),
    ("verify.harness.CornerEvaluator.evaluate_batch", ("calls", "busy_s")),
    ("verify.harness.qualify_deck", ("calls", "busy_s")),
    ("verify.stress.check_stress", ("calls", "self_s")),
    ("rfsystems.image_rejection.simulate_image_rejection_db",
     ("calls", "busy_s")),
    ("rfsystems.image_rejection.fig5_sweep", ("calls", "busy_s")),
    ("behavioral.system.SystemModel.run", ("calls", "self_s")),
    ("devices.ft.ft_curve", ("calls", "busy_s")),
    ("service.server.SimulationService.create_circuit", ("calls", "busy_s")),
)

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}

#: GLOBAL_STATS counters reported as ``spice.engine.<counter>``.
ENGINE_COUNTERS = (
    "element_evals", "bypassed_evals", "assemblies", "dense_assemblies",
    "sparse_assemblies", "factorizations", "solves", "jacobian_reuses",
    "refactorizations",
)

JOB_KINDS = ("dc", "sweep", "ac", "verify")

MAP_CHUNKS = tuple(f"sweep.executors.{cls}.map_chunks" for cls in
                   ("SerialExecutor", "ThreadExecutor", "ProcessExecutor"))


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(tracer, wall_s: float, setup_totals: dict,
                      engine_delta: dict, extra: dict) -> dict:
    """``{name: (value, unit)}`` for one traced run.

    ``wall_s`` is the traced measurement wall time; ``setup_totals`` the
    span totals of the last set-up (where ``CornerEvaluator.prime`` runs);
    ``engine_delta`` the GLOBAL_STATS delta over the traced measurement;
    ``extra`` the workload's own figures (``counters_exact``,
    ``trace_overhead_frac``, service gauges sampled through
    ``stats_payload``, generator lag).
    """
    totals = tracer.totals()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    out: dict = {}
    for span, stats in SPAN_STATS:
        source = setup_totals if span.endswith(".prime") else totals
        entry = source.get(span, empty)
        for stat in stats:
            out[f"{span}.{stat}"] = (entry[stat], UNITS[stat])

    load = totals.get("spice.engine.BJTGroup.load", empty)
    out["spice.engine.BJTGroup.load.busy_frac"] = (
        _ratio(load["busy_s"], wall_s), "frac")
    for counter in ENGINE_COUNTERS:
        out[f"spice.engine.{counter}"] = (engine_delta[counter], "count")
    out["spice.engine.counters_exact"] = (extra["counters_exact"], "count")

    for name, child in (("spice.dcop.newton_solve",
                         "spice.engine.CompiledCircuit.evaluate"),
                        ("spice.dcop.newton_solve_batched",
                         "spice.engine.CompiledCircuit.evaluate_stacked")):
        calls = totals.get(name, empty)["calls"]
        out[f"{name}.iters_per_call"] = (
            _ratio(tracer.child_calls(name, child), calls), "count")
    points = tracer.counter("transient.points")
    out["spice.transient.solve_transient.points"] = (points, "count")
    out["spice.transient.solve_transient.newton_per_point"] = (
        _ratio(tracer.child_calls("spice.transient.solve_transient",
                                  "spice.dcop.newton_solve"), points),
        "count")

    batch_calls = sum(
        totals.get(f"sweep.batched.{cls}.evaluate_batch", empty)["calls"]
        for cls in ("BlockedDCSweep", "BlockedACSweep"))
    out["sweep.batched.lanes_per_call"] = (
        _ratio(tracer.counter("batched.lanes"), batch_calls), "count")

    out["sweep.executors.map_chunks.busy_s"] = (
        sum(totals.get(name, empty)["busy_s"] for name in MAP_CHUNKS), "s")
    out["sweep.executors.payload_bytes"] = (
        tracer.counter("executors.payload_bytes"), "bytes")
    out["sweep.executors.chunks"] = (tracer.counter("executors.chunks"),
                                     "count")
    chunk_p99 = tracer.samples.get("executors.chunk_s", [])
    out["sweep.executors.chunk_p99_ms"] = (
        1e3 * nearest_rank(chunk_p99, 0.99) if chunk_p99 else 0.0, "ms")
    out["sweep.executors.spinup_s"] = (tracer.counter("executors.spinup_s"),
                                       "s")
    for backend in ("serial", "thread", "process"):
        out[f"sweep.executors.backend_{backend}"] = (
            tracer.counter(f"executors.backend.{backend}"), "count")
    out["sweep.cache.hit_ratio"] = (
        _ratio(tracer.counter("cache.hits"), tracer.counter("cache.lookups")),
        "frac")

    waits = tracer.samples.get("service.queue_wait_s", [])
    for q, label in ((0.5, "p50"), (0.99, "p99")):
        out[f"service.queue_wait_{label}_ms"] = (
            1e3 * nearest_rank(waits, q) if waits else 0.0, "ms")
    for kind in JOB_KINDS:
        out[f"service.job.{kind}.calls"] = (
            totals.get(f"service.job.{kind}", empty)["calls"], "count")
        durations = tracer.samples.get(f"service.exec_s.{kind}", [])
        out[f"service.job.{kind}.exec_p50_ms"] = (
            1e3 * nearest_rank(durations, 0.5) if durations else 0.0, "ms")
    for name in ("cache_hit_ratio", "recompiles", "rejected",
                 "max_queue_depth"):
        out[f"service.{name}"] = (extra[f"service_{name}"],
                                  "frac" if name.endswith("ratio")
                                  else "count")
    out["loadgen.lag_p99_ms"] = (extra["loadgen_lag_p99_ms"], "ms")
    out["trace_overhead_frac"] = (extra["trace_overhead_frac"], "frac")
    out["trace_coverage_frac"] = (
        _ratio(tracer.root_seconds("MainThread"), wall_s), "frac")
    return out
