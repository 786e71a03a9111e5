#!/usr/bin/env python3
"""Compare two sets of benchmark runs, workload by workload.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the run records ``perfbench/run.py`` writes to
``perfbench/out/runs/`` (copy that directory aside between the two
commits).  For every workload found in both sets it prints:

* each end-to-end metric's median and quartiles, base and new, the change
  as a share of the base median, and whether it is worse than the
  metric's bound in ``BENCHMARK.json``;
* the workload's named figures (``table1_s``, ``svc_p99_ms_low``, ...);
* from the traced runs, every per-layer ``*.self_s``/``*.busy_s`` span
  time with its base value and delta, largest change first, so the layer
  that moved is visible;
* whether the exact work counters repeated, unit by unit, across runs
  (deterministic workloads only; a unit is e.g. one Table 1 row) and
  which counters of which unit differ between the two sets.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    """``{workload: {"plain": [records], "traced": [records]}}``."""
    runs: dict = {}
    for path in sorted(directory.glob("*-trace[01]-seed*.json")):
        record = json.loads(path.read_text())
        key = "traced" if record["trace"] else "plain"
        runs.setdefault(record["workload"], {"plain": [], "traced": []})
        runs[record["workload"]][key].append(record)
    return runs


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _metric(records, name):
    return [r["metrics"][name]["value"] for r in records
            if name in r.get("metrics", {})]


def _counters(records):
    """``{unit: engine counters}`` when every round of a unit, in every
    run, did the same counted work; otherwise None."""
    if not records or not all(r.get("counters_exact") for r in records):
        return None
    per_unit: dict = {}
    for record in records:
        for round_ in record["rounds"]:
            if per_unit.setdefault(round_["unit"],
                                   round_["engine"]) != round_["engine"]:
                return None
    return per_unit


def compare(base: dict, new: dict, spec: dict) -> str:
    lines = []
    for workload in sorted(set(base) & set(new)):
        b, n = base[workload], new[workload]
        lines.append(f"== {workload}: base {len(b['plain'])} runs "
                     f"(+{len(b['traced'])} traced), new "
                     f"{len(n['plain'])} runs (+{len(n['traced'])} traced)")
        if b["plain"] and n["plain"]:
            lines.append(f"  {'end-to-end':16s} {'base q1/med/q3':>30s} "
                         f"{'new q1/med/q3':>30s} {'change':>8s}")
            for entry in spec["end_to_end"]:
                name = entry["name"]
                bq = _quartiles(_metric(b["plain"], name))
                nq = _quartiles(_metric(n["plain"], name))
                change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
                worse = change if entry["better"] == "lower" else -change
                flag = "  WORSE than bound" if worse > entry["bound"] else ""
                lines.append(
                    f"  {name:16s} {bq[0]:9.4g} {bq[1]:9.4g} {bq[2]:9.4g}  "
                    f"{nq[0]:9.4g} {nq[1]:9.4g} {nq[2]:9.4g} "
                    f"{change:+8.1%}{flag}")
            named = [k for k, v in b["plain"][0]["named"].items()
                     if isinstance(v, (int, float))]
            for key in named:
                bv = statistics.median(r["named"][key] for r in b["plain"])
                nv = statistics.median(r["named"].get(key, 0)
                                       for r in n["plain"])
                change = (nv - bv) / bv if bv else 0.0
                lines.append(f"  {key:28s} base {bv:12.5g}  new {nv:12.5g}"
                             f"  {change:+8.1%}")
        if b["traced"] and n["traced"]:
            rows = []
            for entry in spec["per_layer"]:
                name = entry["name"]
                if not name.endswith(("self_s", "busy_s")):
                    continue
                bv = statistics.median(_metric(b["traced"], name))
                nv = statistics.median(_metric(n["traced"], name))
                if bv or nv:
                    rows.append((abs(nv - bv), name, bv, nv))
            lines.append(f"  {'per-layer span time (traced runs)':58s} "
                         f"{'base s':>9s} {'new s':>9s} {'delta s':>9s}")
            for _, name, bv, nv in sorted(rows, reverse=True):
                lines.append(f"  {name:58s} {bv:9.4f} {nv:9.4f} "
                             f"{nv - bv:+9.4f}")
        bc, nc = _counters(b["plain"] + b["traced"]), \
            _counters(n["plain"] + n["traced"])
        if bc is not None or nc is not None:
            lines.append(f"  exact counters repeat: base {bc is not None}, "
                         f"new {nc is not None}")
            if bc is not None and nc is not None:
                for unit in sorted(set(bc) | set(nc)):
                    b_unit, n_unit = bc.get(unit, {}), nc.get(unit, {})
                    for key in sorted(set(b_unit) | set(n_unit)):
                        if b_unit.get(key) != n_unit.get(key):
                            lines.append(
                                f"    unit {unit} {key}: {b_unit.get(key)}"
                                f" -> {n_unit.get(key)} per round")
    return "\n".join(lines)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = (load(Path(arg)) for arg in argv)
    print(compare(base, new, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
