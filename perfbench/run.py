#!/usr/bin/env python3
"""The repository benchmark (workloads and metrics: BENCHMARK.json,
perfbench/README.md).

    python3 perfbench/run.py --workload table1_ring --seed 1 \\
        --seconds 20 --trace 0

Builds nothing: it runs ``repro`` from ``src/`` of the checkout it sits in.
Each run sets the workload up ``SETUP_REPEATS`` times (``setup_s`` is the
median), measures for ``--seconds``, checks every output against the
references, and prints one JSON object as the last line of stdout:
end-to-end metrics with ``--trace 0``, per-layer metrics from wrapped
``repro`` entry points with ``--trace 1``.  Timings of workloads with
``host_scaled`` set are reported at a reference host speed
(``util.HostSpeed``; the raw ones are printed and recorded too).  A
detailed record goes to ``perfbench/out/runs/`` (``perfbench/compare.py``
reads those), and a traced run also writes a Chrome trace and a
self-time table to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5

WORKLOADS = {
    "table1_ring": "wl_table1",
    "ring101_sparse": "wl_ring101",
    "corner_sweeps": "wl_corners",
    "service_mix": "wl_service",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _ordered(names_units, values: dict) -> dict:
    """Metrics in BENCHMARK.json order; a missing one is a bug here."""
    out = {}
    for entry in names_units:
        value = values[entry["name"]]
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def _sum_engine(rounds) -> dict:
    total: dict = {}
    for r in rounds:
        for name, value in r.engine.items():
            total[name] = total.get(name, 0) + value
    return total


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    references = json.loads((HERE / "references.json").read_text())

    from util import HOST, peak_rss_mb

    workload = importlib.import_module(WORKLOADS[args.workload]).Workload(
        args.seed, references)
    tracer = None
    if args.trace:
        from layers import OBSERVERS, TARGETS
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(TARGETS, OBSERVERS)

    sampled = workload.host_scaled and tracer is None
    if sampled:
        HOST.start()
    setups = []
    try:
        for i in range(SETUP_REPEATS):
            if i:
                workload.teardown()
                # The last set-up's garbage cycles go now, untimed, so
                # peak RSS does not depend on when the collector runs.
                gc.collect()
            if tracer is not None:
                tracer.reset()
                tracer.enabled = True
            start = HOST.clock()
            workload.setup()
            setups.append(HOST.clock() - start)
            if tracer is not None:
                tracer.enabled = False
        setup_totals = tracer.totals() if tracer is not None else {}
        if tracer is not None:
            tracer.reset()
        try:
            measured = workload.measure(args.seconds, tracer)
        finally:
            workload.teardown()
            if tracer is not None:
                tracer.uninstall()
    finally:
        if sampled:
            HOST.stop()

    tally = measured["tally"]
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "setup_runs_s": setups, "named": measured["named"],
        "fail_frac": tally.failed / max(1, tally.attempted),
        "errors": tally.errors,
        "counters_exact": bool(workload.exact_counters
                               and measured["counters_exact"]),
    }
    if "rounds" in measured:
        record["rounds"] = [{"unit": r.unit, "traced": r.traced,
                             "seconds": r.seconds,
                             "engine": r.engine}
                            for r in measured["rounds"]]
    if tracer is None:
        raw = {"setup_s": statistics.median(setups),
               "peak_rss_mb": peak_rss_mb(), **measured["end_to_end"]}
        scale = HOST.scale()
        record["host_scale"] = scale
        record["host_probe_ms"] = [1e3 * s for s in HOST.samples]
        record["raw_metrics"] = raw
        metrics = _ordered(spec["end_to_end"], {
            name: value * scale if unit in ("s", "ms")
            else value / scale if unit == "1/s" else value
            for name, value, unit in (
                (e["name"], raw[e["name"]], e["unit"])
                for e in spec["end_to_end"])})
        print(f"host probe: {len(HOST.samples)} samples, mean "
              f"{1e3 * HOST.REFERENCE_S / scale:.4f} ms (reference "
              f"{1e3 * HOST.REFERENCE_S} ms), timings scaled by {scale:.4f}; "
              "raw: " + ", ".join(f"{k}={v:.6g}" for k, v in raw.items()))
    else:
        from layers import per_layer_metrics

        if "rounds" in measured:
            traced = [r for r in measured["rounds"] if r.traced]
            wall_s = sum(r.seconds for r in traced)
            engine = _sum_engine(traced)
        else:
            wall_s = measured["traced_wall_s"]
            engine = measured["traced_engine"]
        service = measured.get("service", {})
        extra = {
            "counters_exact": int(record["counters_exact"]),
            "trace_overhead_frac": measured["trace_overhead_frac"],
            "loadgen_lag_p99_ms": measured.get("loadgen_lag_p99_ms", 0.0),
            **{f"service_{k}": service.get(k, 0) for k in (
                "cache_hit_ratio", "recompiles", "rejected",
                "max_queue_depth")},
        }
        layer = per_layer_metrics(tracer, wall_s, setup_totals, engine,
                                  extra)
        metrics = _ordered(spec["per_layer"],
                           {k: v for k, (v, _) in layer.items()})
        OUT.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.write_chrome_trace(OUT / f"trace-{stem}.json")
        table = tracer.self_time_table(wall_s)
        (OUT / f"selftime-{stem}.txt").write_text(table + "\n")
        load = layer["spice.engine.BJTGroup.load.busy_frac"][0]
        print(f"traced wall {wall_s:.3f} s; BJTGroup.load busy share "
              f"{load:.1%} (cProfile figure in ROADMAP.md: 63%); "
              f"trace overhead {extra['trace_overhead_frac']:+.1%}")
        print(table)
        record["span_calls"] = {name: entry["calls"] for name, entry
                                in tracer.totals().items()}
    record["metrics"] = metrics
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
     ).write_text(json.dumps(record, indent=1, default=str) + "\n")

    for error in tally.errors:
        print(f"check failed: {error}")
    print(f"{args.workload}: " + ", ".join(
        f"{k}={v}" for k, v in measured["named"].items()
        if not isinstance(v, dict)) + f", fail_frac={record['fail_frac']}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
