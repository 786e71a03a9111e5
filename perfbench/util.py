"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import signal
import statistics
import time

import numpy as np


def nearest_rank(values, q: float) -> float:
    """Nearest-rank percentile ``q`` in [0, 1] of a non-empty sequence."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest joined child,
    such as a sweep pool worker (Linux reports KiB)."""
    return max(resource.getrusage(who).ru_maxrss for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def engine_snapshot():
    from repro.spice.engine import GLOBAL_STATS

    return GLOBAL_STATS.copy()


def engine_delta(snapshot) -> dict:
    """GLOBAL_STATS counter deltas since ``snapshot`` (counters only)."""
    from repro.spice.engine import GLOBAL_STATS, EngineStats

    delta = GLOBAL_STATS.since(snapshot).as_dict()
    return {name: delta[name] for name in EngineStats._COUNTERS}


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float):
        self.a = a
        self.b = 2.0 * a


class HostSpeed:
    """Samples how fast this host runs the simulator's kind of code, all
    through a run, so that timings can be reported at a reference speed.

    The benchmark gets a few vCPUs of a shared host, and other tenants'
    load slows them: a fixed piece of code runs in either about 2.4 or
    about 4.4 ms, switching within seconds, and how much of a run falls
    in the slow state changes from run to run, far more than any bound.
    So while a run measures, a timer signal interrupts the main thread
    every ``PERIOD_S`` and times a short probe (1-2 ms) on fixed
    data, none of it ``repro``: numpy ufuncs on small arrays and a
    scatter-add (device evaluation and stamping), attribute reads from
    objects scattered over a few MB (the interpreter's share), and small
    dense solves (LU).  Over fresh processes each running the same
    Table 1 transients, the three together took the spread of the
    per-process times from 0.13 (raw) to 0.04; any one alone left
    0.05-0.06.  Timings are taken with :meth:`clock`, which leaves the
    probes out, and reported multiplied by :meth:`scale`: ``REFERENCE_S``
    over the probe's mean time in the run.  A change to ``repro`` moves
    the scaled times as it moves the raw ones; a busier host moves the
    raw times only.

    run.py starts the sampler for workloads with ``host_scaled`` set, and
    never in a traced run.  Workloads pause it (:meth:`paused`) while
    sweep pool workers busy every vCPU: a probe would then wait for a
    vCPU and read how much of the run is parallel, not the host's speed.
    Parallel work is scaled by the host's speed measured around it.
    """

    #: Probe time (s) the reported timings are scaled to: about its mean
    #: during runs on a 2-core x86-64 Xeon VM.
    REFERENCE_S = 0.0015
    PERIOD_S = 0.05
    SIZE = 87  # the Table 1 ring's unknowns

    def __init__(self):
        rng = np.random.default_rng(0)
        n = self.SIZE
        self._x = rng.standard_normal(15)
        self._index = rng.integers(0, n, 400)
        self._values = rng.standard_normal(400)
        self._pairs = [_Pair(float(v)) for v in rng.standard_normal(20000)]
        self._order = rng.permutation(len(self._pairs))[:1000].tolist()
        self._matrix = rng.standard_normal((n, n)) + n * np.eye(n)
        self._rhs = rng.standard_normal(n)
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in probes so far
        self._running = False

    def _once(self) -> None:
        x = self._x
        for i in range(20):
            e = np.exp(np.clip(x, -40.0, 40.0))
            y = x * e + 1.0
            np.where(y > 0.0, y, -y)
            if i % 3 == 0:
                out = np.zeros(self.SIZE)
                np.add.at(out, self._index, self._values)
        total = 0.0
        for i in self._order:
            pair = self._pairs[i]
            total += pair.a * pair.b
        for _ in range(4):
            np.linalg.solve(self._matrix, self._rhs)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._once()
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds

    def start(self) -> None:
        self._once()  # first-call costs stay out of the samples
        signal.signal(signal.SIGALRM, self._sample)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._running = False

    @contextlib.contextmanager
    def paused(self):
        """No samples inside: for work spread over sweep pool workers,
        which busy every vCPU, so that a probe would wait for one."""
        if not self._running:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S,
                             self.PERIOD_S)

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in probes."""
        return time.perf_counter() - self.spent

    def scale(self) -> float:
        """Reference over measured host speed (1.0 without samples):
        multiply a time by it, divide a rate by it."""
        if not self.samples:
            return 1.0
        return self.REFERENCE_S / statistics.fmean(self.samples)


#: The run's sampler; run.py starts and stops it, and workloads time
#: their work with ``HOST.clock()``.
HOST = HostSpeed()


class Deadline:
    """Decides whether another unit of work fits in the measured window."""

    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def fits(self, estimate_s: float) -> bool:
        return time.perf_counter() + estimate_s <= self.end


class Tally:
    """Operations attempted and failed, with the reason for each failure.

    ``wrong`` counts the failures that are wrong outputs (as opposed to
    rejected, timed-out or errored operations).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, reason: str, count: int = 1, wrong: bool = True) -> None:
        self.attempted += count
        self.failed += count
        self.wrong += count if wrong else 0
        self._note(reason)

    def mismatch(self, reason: str) -> None:
        """An operation already counted by :meth:`ok` gave a wrong output."""
        self.failed += 1
        self.wrong += 1
        self._note(reason)

    def _note(self, reason: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(reason)


class Round:
    """One timed unit of work of a round-based workload."""

    def __init__(self, unit: int, traced: bool, seconds: float,
                 engine: dict, payload):
        self.unit = unit
        self.traced = traced
        self.seconds = seconds
        self.engine = engine
        self.payload = payload


def run_rounds(deadline: Deadline, units, tracer=None) -> list:
    """Run the ``units`` callables in turn, cycle after cycle, while the
    next one fits in the window (its last time, or the longest so far).

    At least one full cycle runs.  With a tracer, every unit runs twice in
    a row, untraced then traced, so the same run yields the per-layer
    spans and a tracing overhead taken from back-to-back repeats.  Each
    unit records its GLOBAL_STATS delta.
    """
    repeats = 2 if tracer is not None else 1

    def step(i):  # -> (unit, traced)
        return (i // repeats) % len(units), i % repeats == 1

    rounds: list[Round] = []
    last: dict = {}
    while len(rounds) < len(units) * repeats or deadline.fits(
            last.get(step(len(rounds))[0], max(last.values()))):
        unit, traced = step(len(rounds))
        # The last unit's garbage cycles go now, untimed, so peak RSS does
        # not depend on how many units fit in the window.
        gc.collect()
        if tracer is not None:
            tracer.enabled = traced
        snapshot = engine_snapshot()
        start = HOST.clock()
        try:
            payload = units[unit]()
        finally:
            seconds = HOST.clock() - start
            if tracer is not None:
                tracer.enabled = False
        last[unit] = seconds
        rounds.append(Round(unit, traced, seconds, engine_delta(snapshot),
                            payload))
    return rounds


def unit_medians(rounds: list, traced: bool = False) -> dict:
    """Median seconds per unit over the (un)traced rounds."""
    times: dict = {}
    for r in rounds:
        if r.traced == traced:
            times.setdefault(r.unit, []).append(r.seconds)
    return {unit: median(values) for unit, values in times.items()}


def overhead(rounds: list) -> float:
    """Traced over untraced time of the units run both ways, minus one."""
    plain = unit_medians(rounds)
    traced = unit_medians(rounds, traced=True)
    units = sorted(set(plain) & set(traced))
    return (sum(traced[u] for u in units)
            / sum(plain[u] for u in units)) - 1.0


def counters_repeat(rounds: list) -> bool:
    """True when every repeat of a unit did exactly the same counted
    engine work."""
    first: dict = {}
    return all(first.setdefault(r.unit, r.engine) == r.engine
               for r in rounds)
