"""service_mix: an open loop against an in-process ``SimulationService``
with the ``repro serve`` defaults (2 worker threads, serial sweeps).

One generator thread submits a seeded schedule and times every
operation from its *due* time to its finish, so a stall also counts the
wait it imposes on later arrivals.  The mix:

* 70 % ``dc`` on resident circuits, keys repeating over 3 tenants (cache
  reads);
* 12 % DC ``sweep`` and 5 % AC ``sweep`` of ``ce_stage`` with fresh bias
  values (cache writes); 8 % ``ac`` with drawn frequency grids;
* 4 % ``create_circuit`` of a fresh seeded ``ce_stage`` variant (the
  parse / lint / compile write path), which later jobs then target;
* 1 % ``verify`` of a resident seeded cell.

Two open-loop phases run at fixed offered rates, ``low`` then ``high``;
rejections (503), failed jobs and timeouts are failures and misses of
the latency limit.  Then a closed loop keeps 32 jobs of the same mix in
flight, creates included: its throughput is the service's capacity, and
its latencies are those of a saturated queue.  The gated metrics come
from the closed loop: on a shared 2-core host the open-loop percentiles
move 40-170 % between identical runs whenever the host preempts the
vCPUs, while a saturated queue's latency is a sum over many jobs and
moves with the host's speed only.  Its tail is taken at p90: a
few-millisecond preemption still reaches 1 % of the saturated queue's
jobs.  Payloads of both loops are compared with direct ``solve_dc`` /
``solve_ac`` results after the load ends.
"""

from __future__ import annotations

import collections
import math
import multiprocessing
import re
import time
from pathlib import Path

import numpy as np

from util import Tally, engine_delta, engine_snapshot, median, nearest_rank

DECKS = Path(__file__).resolve().parents[1] / "examples" / "decks"
WORKERS = 2
QUEUE_LIMIT = 256
JOBS_KEPT = 1 << 16
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
CELLS = ("UPMIX-1300", "PHASE90-IF")
KINDS = ("dc", "sweep_dc", "sweep_ac", "ac", "create", "verify")
SHARES = (0.70, 0.12, 0.05, 0.08, 0.04, 0.01)
#: Offered rates (jobs/s), frozen from the closed-loop capacity of this
#: mix on a 2-core x86-64 box (CLOSED_RPS): about 14 % and 29 % of it.
#: Nearer capacity, GIL hand-offs and queueing amplify the box's noise so
#: much that p50/p99 spread 40-100 % between identical runs.
LOW_RPS = 100.0
HIGH_RPS = 200.0
#: Shares of the measured window: open loop at LOW_RPS (1000 arrivals at
#: 25 s) and HIGH_RPS (1000 arrivals), then a closed loop with
#: CLOSED_WINDOW jobs in flight.  The closed loop runs a fixed number of
#: operations, its share of the window at CLOSED_RPS, so the circuits it
#: creates, and with them peak RSS, do not depend on the service's speed.
LOW_SHARE, HIGH_SHARE, CLOSED_SHARE = 0.4, 0.2, 0.4
CLOSED_WINDOW = 32
CLOSED_RPS = 700.0
#: Latency limit for goodput: a job finished later than this after its
#: due time (or not at all) does not count.
LATENCY_LIMIT_S = 0.25
#: How long after a phase's last arrival its jobs may still finish.
DRAIN_S = 20.0
STATS_EVERY_S = 0.2
DC_SWEEP_POINTS = 2
AC_SWEEP_POINTS = 1
AC_CHECK_EVERY = 4
TRACE_LOOP_OPS = 700
RTOL, ATOL = 1e-9, 1e-12


def ce_variant(base: str, load_ohm: float, bias_v: float) -> str:
    """``ce_stage.cir`` with another collector load and base bias."""
    deck = re.sub(r"^RC vcc c .*$", f"RC vcc c {load_ohm:.6g}", base,
                  flags=re.M)
    return re.sub(r"^VB b 0 DC \S+", f"VB b 0 DC {bias_v:.6g}", deck,
                  flags=re.M)


def sweep_params(values: list, analysis: str) -> dict:
    """A ``sweep`` job over the base bias of ``ce_stage``."""
    params = {"source": "VB", "values": values, "output": "c",
              "analysis": analysis}
    if analysis == "ac":
        params.update(start=1e6, stop=1e10, points_per_decade=5)
    return params


class _Op:
    __slots__ = ("kind", "due", "submitted", "job_id", "circuit", "params",
                 "latency", "state", "result")

    def __init__(self, kind, due, circuit, params):
        self.kind = kind
        self.due = due
        self.circuit = circuit
        self.params = params
        self.submitted = None
        self.job_id = None
        self.latency = math.inf
        self.state = "pending"
        self.result = None


class Workload:
    exact_counters = False
    #: Not scaled by the host probe: its timings are those of two worker
    #: threads and a queue, not of the one thread the probe times.
    host_scaled = False

    def __init__(self, seed: int, references: dict):
        self.rng = np.random.default_rng(seed)
        self.service = None

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        from repro.celldb import seed_database
        from repro.service import SimulationService

        self.base_deck = (DECKS / "ce_stage.cir").read_text()
        db = seed_database()
        # Keep every job record until the phase is read back.
        self.service = SimulationService(workers=WORKERS,
                                         queue_limit=QUEUE_LIMIT,
                                         max_jobs_kept=JOBS_KEPT)
        self.decks: dict = {}  # circuit id -> deck text
        self.ce_family: list = []  # ce_stage and its variants
        self.residents: list = []
        for text in (self.base_deck, (DECKS / "noise_bench.cir").read_text(),
                     *(db.get(cell).schematic for cell in CELLS)):
            self._create(text)
        self.ce_family.append(self.residents[0])
        self.cells = self.residents[2:]
        warm = [self.service.run_dc(cid, tenant=tenant)["job_id"]
                for cid in self.residents for tenant in TENANTS]
        warm += [self.service.run_verify(cid, tenant=tenant)["job_id"]
                 for cid in self.cells for tenant in TENANTS]
        # Sweeps target ce_stage only, so its DC and AC sweep evaluators
        # are built here, not by whichever job happens to come first.
        warm += [self.service.submit("sweep", self.residents[0],
                                     sweep_params([0.8], analysis),
                                     tenant="warm-up")["job_id"]
                 for analysis in ("dc", "ac")]
        for job_id in warm:
            state = self.service.wait(job_id, timeout=60)["state"]
            if state != "done":
                raise RuntimeError(f"warm-up job {job_id} ended {state}")

    def _create(self, deck: str) -> str:
        payload = self.service.create_circuit(deck)
        if payload["status"] != "ok":
            raise RuntimeError(f"create_circuit failed: {payload}")
        cid = payload["circuit_id"]
        self.decks[cid] = deck
        self.residents.append(cid)
        return cid

    def teardown(self) -> None:
        from repro.sweep import shutdown_pools

        if self.service is not None:
            self.service.close()
            self.service = None
        shutdown_pools()
        for child in multiprocessing.active_children():
            child.join(timeout=60)

    # -- schedule ------------------------------------------------------------

    def _draw(self, due: float) -> _Op:
        """One operation of the mix, its targets drawn from the seed."""
        rng = self.rng
        kind = KINDS[rng.choice(len(KINDS), p=SHARES)]
        pick = rng.random()
        tenant = TENANTS[int(rng.integers(len(TENANTS)))]
        if kind == "dc":
            return _Op("dc", due, pick, {"tenant": tenant})
        if kind in ("sweep_dc", "sweep_ac"):
            analysis = kind[-2:]
            count = DC_SWEEP_POINTS if analysis == "dc" else AC_SWEEP_POINTS
            values = [float(v) for v in rng.uniform(0.7, 0.85, count)]
            return _Op("sweep", due, ("base", pick), {
                "tenant": tenant, **sweep_params(values, analysis)})
        if kind == "ac":
            return _Op("ac", due, ("ce", pick), {
                "tenant": tenant, "start": 1e6,
                "stop": float(10 ** rng.uniform(9.0, 10.5)),
                "points_per_decade": int(rng.integers(5, 11)),
                "output": "c"})
        if kind == "create":
            return _Op("create", due, None, {
                "load_ohm": float(rng.uniform(800.0, 1200.0)),
                "bias_v": float(rng.uniform(0.78, 0.82))})
        return _Op("verify", due, ("cell", pick), {"tenant": tenant})

    def _schedule(self, rate: float, seconds: float) -> list:
        # Evenly spaced arrivals: the seed varies what arrives, not when,
        # so run-to-run spread reflects the service, not Poisson bursts.
        return [self._draw((i + 0.5) / rate)
                for i in range(round(rate * seconds))]

    # -- load generation -----------------------------------------------------

    def _target(self, op: _Op) -> str:
        pool = {None: self.residents, "ce": self.ce_family,
                "base": self.residents[:1], "cell": self.cells}
        group, pick = (op.circuit if isinstance(op.circuit, tuple)
                       else (None, op.circuit))
        members = pool[group]
        return members[int(pick * len(members))]

    def _run_ops(self, ops: list, tally: Tally, gauges: dict) -> None:
        """Submit ``ops`` on their schedule."""
        service = self.service
        lags = gauges["lags"]
        start = time.monotonic()
        next_stats = start
        for op in ops:
            due = start + op.due
            while True:
                now = time.monotonic()
                if now >= next_stats:
                    stats = service.stats_payload()["stats"]
                    gauges["max_queue_depth"] = max(
                        gauges["max_queue_depth"], stats["queue_depth"])
                    next_stats = now + STATS_EVERY_S
                    continue
                if now >= due:
                    break
                time.sleep(min(due, next_stats) - now)
            op.due = due
            op.submitted = time.monotonic()
            lags.append(op.submitted - due)
            if op.kind == "create":
                self._create_variant(op, tally)
                continue
            op.circuit = self._target(op)
            params = dict(op.params)
            tenant = params.pop("tenant")
            payload = service.submit(op.kind, op.circuit, params,
                                     tenant=tenant)
            if payload["status"] != "ok":
                op.state = payload["status"]
                continue
            op.job_id = payload["job_id"]

    def _create_variant(self, op: _Op, tally: Tally) -> None:
        """Run a ``create`` op inline on the generator thread; its latency
        runs from ``op.due``.  A failure is tallied here, a success by the
        caller."""
        deck = ce_variant(self.base_deck, **op.params)
        try:
            cid = self._create(deck)
        except RuntimeError as error:
            tally.fail(str(error), wrong=False)
            op.state = "failed"
            return
        self.ce_family.append(cid)
        op.latency = time.monotonic() - op.due
        op.state = "done"

    def _collect(self, ops: list, tally: Tally) -> None:
        """Wait for every job, then record its state and latency."""
        deadline = time.monotonic() + DRAIN_S
        for op in ops:
            if op.job_id is None:
                if op.state == "rejected":
                    tally.fail(f"{op.kind} rejected (503)", wrong=False)
                elif op.state == "done":
                    tally.ok()
                elif op.state != "failed":
                    tally.fail(f"{op.kind} refused: {op.state}",
                               wrong=False)
                continue
            polled = self.service.wait(
                op.job_id, timeout=max(0.0, deadline - time.monotonic()))
            op.state = polled.get("state", polled["status"])
            if op.state == "done":
                op.latency = ((op.submitted - op.due)
                              + polled["latency_seconds"])
                op.result = polled["result"]
                tally.ok()
            elif op.state == "failed":
                tally.fail(f"{op.kind} job failed: "
                           f"{polled.get('error', {}).get('message')}",
                           wrong=False)
            else:
                tally.fail(f"{op.kind} job timed out ({op.state})",
                           wrong=False)

    def _phase(self, rate: float, seconds: float, tally: Tally,
               gauges: dict) -> dict:
        ops = self._schedule(rate, seconds)
        self._run_ops(ops, tally, gauges)
        self._collect(ops, tally)
        latencies = [op.latency for op in ops]
        good = [op for op in ops
                if op.state == "done" and op.latency <= LATENCY_LIMIT_S]
        # Goodput over the phase as it ran: first arrival to last
        # in-limit finish.
        span = max((op.due + op.latency for op in good), default=0.0) \
            - ops[0].due
        return {
            "ops": ops, "count": len(ops),
            "p50_ms": 1e3 * nearest_rank(latencies, 0.5),
            "p99_ms": 1e3 * nearest_rank(latencies, 0.99),
            "goodput_rps": len(good) / span if span > 0 else 0.0,
        }

    # -- output checks -------------------------------------------------------

    def _check(self, ops: list, tally: Tally) -> None:
        """Compare dc and a sample of ac payloads with direct solves."""
        from repro.spice.ac import frequency_grid, solve_ac
        from repro.spice.dcop import solve_dc
        from repro.spice.parser import parse_deck

        direct: dict = {}

        def reference(cid):
            if cid not in direct:
                circuit = parse_deck(self.decks[cid]).circuit
                circuit.assign_indices()
                x = solve_dc(circuit)
                nodes = {f"v({node.lower()})": (
                    0.0 if circuit.node_index(node) < 0
                    else float(x[circuit.node_index(node)]))
                    for node in circuit.nodes()}
                direct[cid] = (circuit, x, nodes)
            return direct[cid]

        ac_seen = 0
        for op in ops:
            if op.state != "done" or op.result is None:
                continue
            if op.kind == "dc":
                nodes = reference(op.circuit)[2]
                got = op.result["nodes"]
                if got.keys() != nodes.keys() or not np.allclose(
                        [got[k] for k in nodes], list(nodes.values()),
                        rtol=RTOL, atol=ATOL):
                    tally.mismatch(f"dc payload of {op.circuit} differs "
                                   "from solve_dc")
            elif op.kind == "ac":
                ac_seen += 1
                if ac_seen % AC_CHECK_EVERY:
                    continue
                circuit, x, _ = reference(op.circuit)
                p = op.params
                grid = frequency_grid(p["start"], p["stop"],
                                      p["points_per_decade"], "dec")
                want = solve_ac(circuit, grid, dc_solution=x)
                if not np.allclose(op.result["magnitude_db"],
                                   want.voltage_db(p["output"]),
                                   rtol=RTOL, atol=ATOL):
                    tally.mismatch(f"ac payload of {op.circuit} differs "
                                   "from solve_ac")

    # -- measurement ---------------------------------------------------------

    def _closed(self, count: int, window: int, tally: Tally):
        """Closed loop: run ``count`` ops of the mix, ``window`` jobs in
        flight; ``create`` ops run inline on this thread, as in the open
        loop.  Returns the finished ops (latency from submission) and the
        ops finished per second."""
        service = self.service
        in_flight: collections.deque = collections.deque()
        done = []
        start = time.monotonic()
        while True:
            while count and len(in_flight) < window:
                count -= 1
                op = self._draw(time.monotonic())
                if op.kind == "create":
                    self._create_variant(op, tally)
                    if op.state == "done":
                        done.append(op)
                        tally.ok()
                    continue
                op.circuit = self._target(op)
                params = dict(op.params)
                tenant = params.pop("tenant")
                payload = service.submit(op.kind, op.circuit, params,
                                         tenant=tenant)
                if payload["status"] == "ok":
                    op.job_id = payload["job_id"]
                    in_flight.append(op)
                else:
                    tally.fail(f"{op.kind} refused: {payload['status']}",
                               wrong=False)
            if not in_flight:
                return done, len(done) / (time.monotonic() - start)
            op = in_flight.popleft()
            polled = service.wait(op.job_id, timeout=DRAIN_S)
            op.state = polled.get("state", polled["status"])
            if op.state == "done":
                op.latency = polled["latency_seconds"]
                op.result = polled["result"]
                done.append(op)
                tally.ok()
            else:
                tally.fail(f"closed-loop {op.kind} job ended {op.state}",
                           wrong=False)

    def measure(self, seconds: float, tracer=None) -> dict:
        tally = Tally()
        gauges = {"max_queue_depth": 0, "lags": []}
        overhead = None
        if tracer is not None:
            # Closed-loop throughput untraced / traced, alternately, for
            # the overhead; then trace the rest of the window.
            start = time.monotonic()
            plain, traced = [], []
            for _ in range(3):
                plain.append(self._closed(TRACE_LOOP_OPS, CLOSED_WINDOW,
                                          Tally())[1])
                tracer.enabled = True
                traced.append(self._closed(TRACE_LOOP_OPS, CLOSED_WINDOW,
                                           Tally())[1])
                tracer.enabled = False
            overhead = median(plain) / median(traced) - 1.0
            seconds = max(2.0, seconds - (time.monotonic() - start))
            tracer.reset()
            tracer.enabled = True
        before = self.service.stats_payload()["stats"]
        snapshot = engine_snapshot()
        wall_start = time.monotonic()
        try:
            low = self._phase(LOW_RPS, seconds * LOW_SHARE, tally, gauges)
            high = self._phase(HIGH_RPS, seconds * HIGH_SHARE, tally,
                               gauges)
            closed_ops, capacity = self._closed(
                round(CLOSED_RPS * seconds * CLOSED_SHARE), CLOSED_WINDOW,
                tally)
        finally:
            if tracer is not None:
                tracer.enabled = False
        wall = time.monotonic() - wall_start
        engine = engine_delta(snapshot)
        self._check(low["ops"] + high["ops"] + closed_ops, tally)
        closed = [op.latency for op in closed_ops]

        after = self.service.stats_payload()["stats"]
        hits, misses = (after["cache"][k] - before["cache"][k]
                        for k in ("hits", "misses"))
        lag_p99_ms = 1e3 * nearest_rank(gauges["lags"], 0.99)
        service = {
            "cache_hit_ratio": hits / (hits + misses) if hits else 0.0,
            "recompiles": (after["circuits"]["recompiles"]
                           - before["circuits"]["recompiles"]),
            "rejected": after["jobs"]["rejected"] - before["jobs"]["rejected"],
            "max_queue_depth": gauges["max_queue_depth"],
        }
        closed_p50_ms = 1e3 * nearest_rank(closed, 0.5)
        closed_p90_ms = 1e3 * nearest_rank(closed, 0.9)
        return {
            "tally": tally,
            "end_to_end": {
                "result_ms": closed_p50_ms,
                "tail_ms": closed_p90_ms,
                "rate_per_s": capacity,
            },
            "named": {
                "svc_p50_ms": high["p50_ms"],
                "svc_p99_ms": high["p99_ms"],
                "svc_p99_ms_low": low["p99_ms"],
                "svc_goodput_rps": high["goodput_rps"],
                "svc_closed_p50_ms": closed_p50_ms,
                "svc_closed_p90_ms": closed_p90_ms,
                "svc_closed_jobs": len(closed),
                "svc_capacity_rps": capacity,
                "jobs_low": low["count"], "jobs_high": high["count"],
                "loadgen_lag_p99_ms": lag_p99_ms,
                **service,
            },
            "counters_exact": False,
            "trace_overhead_frac": overhead,
            "traced_wall_s": wall,
            "traced_engine": engine,
            "loadgen_lag_p99_ms": lag_p99_ms,
            "service": service,
        }
