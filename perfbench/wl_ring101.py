"""ring101_sparse: a fixed 3 ns transient of the 101-stage Fig. 11 ring
(1719 unknowns) with ``engine="auto"``, which picks sparse assembly.

The same device and stamp code as ``table1_ring`` at 20x the size, through
sparse assembly and SuperLU: a scatter or LU change that helps dense but
costs sparse shows up here.  Each round builds and compiles the circuit
afresh, so every round does identical counted work; the transient
(``solve_transient`` alone) is timed on its own too.  Deterministic: the
seed does not change it.
"""

from __future__ import annotations

import numpy as np

from util import (
    HOST, Deadline, Tally, counters_repeat, median, overhead, run_rounds,
)

STAGES = 101
STOP_TIME = 3e-9
MAX_STEP = 10e-12
INITIAL_STEP = 1e-12
WARMUP_STOP_TIME = 0.05e-9
#: The ring is autonomous: float noise grows ~e-fold per 50 ps, so the
#: waveform is compared only over the first half nanosecond.
SAMPLE_TIMES = tuple(float(t) for t in np.linspace(0.02e-9, 0.5e-9, 13))
SAMPLE_NODES = ("c0p", "s0p", "s1p", "s2n", "s50p", "s100n")
#: The dense-vs-sparse transient tolerance of tests/spice/test_sparse*.py.
RTOL, ATOL = 1e-3, 1e-4


def waveform_samples(result) -> dict:
    return {node: [float(v) for v in np.interp(
        SAMPLE_TIMES, result.times, result.voltage(node))]
        for node in SAMPLE_NODES}


class Workload:
    exact_counters = True
    host_scaled = True

    def __init__(self, seed: int, references: dict):
        self.reference = references["ring101_sparse"]

    def setup(self) -> None:
        from repro.geometry import ModelParameterGenerator, default_reference

        generator = ModelParameterGenerator(reference=default_reference())
        self.pair = generator.generate("N1.2-12D")
        self.follower = generator.generate("N1.2-6D")
        self._simulate(WARMUP_STOP_TIME)

    def teardown(self) -> None:
        pass

    def _simulate(self, stop_time: float):
        from repro.rfsystems import RingOscillatorSpec, build_ring_oscillator
        from repro.spice.engine import get_engine
        from repro.spice.transient import solve_transient

        circuit = build_ring_oscillator(
            self.pair, follower_model=self.follower,
            spec=RingOscillatorSpec(stages=STAGES))
        engine = get_engine(circuit, "auto")
        start = HOST.clock()
        result = solve_transient(circuit, stop_time=stop_time,
                                 max_step=MAX_STEP,
                                 initial_step=INITIAL_STEP, engine=engine)
        return engine, result, HOST.clock() - start

    def _round(self):
        engine, result, transient_s = self._simulate(STOP_TIME)
        return (engine.assembly, int(result.states.shape[1]),
                len(result.times), waveform_samples(result), transient_s)

    def _check(self, payload, tally: Tally) -> None:
        assembly, unknowns, _, samples, _ = payload
        if assembly != "sparse" or unknowns != self.reference["unknowns"]:
            tally.fail(f"engine=auto chose {assembly} for {unknowns} "
                       "unknowns; expected sparse for "
                       f"{self.reference['unknowns']}")
            return
        expected = self.reference["samples_v"]
        for node in SAMPLE_NODES:
            if not np.allclose(samples[node], expected[node],
                               rtol=RTOL, atol=ATOL):
                tally.fail(f"ring101 waveform at {node} left the "
                           "reference")
                return
        tally.ok()

    def measure(self, seconds: float, tracer=None) -> dict:
        rounds = run_rounds(Deadline(seconds), [self._round], tracer)
        tally = Tally()
        for r in rounds:
            self._check(r.payload, tally)
        timed = [r for r in rounds if not r.traced]
        round_s = [r.seconds for r in timed]
        transient_s = median([r.payload[4] for r in timed])
        points = sum(r.payload[2] for r in timed)
        return {
            "tally": tally,
            "end_to_end": {
                "result_ms": 1e3 * median(round_s),
                "tail_ms": 1e3 * transient_s,
                "rate_per_s": points / sum(round_s),
            },
            "named": {"ring101_s": median(round_s),
                      "ring101_transient_s": transient_s,
                      "rounds": len(timed),
                      "points": rounds[0].payload[2]},
            "rounds": rounds,
            "counters_exact": counters_repeat(rounds),
            "trace_overhead_frac": (overhead(rounds)
                                    if tracer is not None else None),
        }
