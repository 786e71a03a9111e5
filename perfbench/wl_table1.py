"""table1_ring: the paper's Table 1, six 10 ns transients of the 5-stage
Fig. 11 ring oscillator, one per differential-pair shape, serially in
process (87 unknowns, dense assembly).

Its time goes to device evaluation, stamping, dense LU, Newton and step
control; it never touches lane blocking, dispatch or the service.  The
workload is deterministic, so the seed does not change it.
"""

from __future__ import annotations

from util import (
    Deadline, Tally, counters_repeat, overhead, run_rounds, unit_medians,
)

STOP_TIME = 10e-9
WARMUP_STOP_TIME = 1e-9
FOLLOWER_SHAPE = "N1.2-6D"
BEST_SHAPE = "N1.2-12D"


class Workload:
    exact_counters = True
    host_scaled = True

    def __init__(self, seed: int, references: dict):
        self.reference = references["table1_ring"]

    def setup(self) -> None:
        from repro.geometry import (
            TABLE1_SHAPES, ModelParameterGenerator, default_reference,
        )
        from repro.rfsystems import RingOscillatorSpec, run_ring_oscillator

        generator = ModelParameterGenerator(reference=default_reference())
        self.spec = RingOscillatorSpec()
        self.follower = generator.generate(FOLLOWER_SHAPE)
        self.models = {name: generator.generate(name)
                       for name in TABLE1_SHAPES}
        # A short transient so first-call costs stay out of the rounds.
        run_ring_oscillator(self.models[BEST_SHAPE],
                            follower_model=self.follower, spec=self.spec,
                            stop_time=WARMUP_STOP_TIME)

    def teardown(self) -> None:
        pass

    def _shape(self, name: str):
        from repro.rfsystems import run_ring_oscillator

        def transient():
            measurement = run_ring_oscillator(
                self.models[name], follower_model=self.follower,
                spec=self.spec, stop_time=STOP_TIME)
            return name, measurement.frequency, len(
                measurement.result.times)

        return transient

    def measure(self, seconds: float, tracer=None) -> dict:
        # One unit per Table 1 row, cycled: a window that fits a Table 1
        # and a half measures every row once and half of them twice.
        rounds = run_rounds(Deadline(seconds),
                            [self._shape(name) for name in self.models],
                            tracer)
        tally = Tally()
        expected = self.reference["frequency_hz_4sig"]
        frequencies = {}
        for r in rounds:
            name, frequency, _ = r.payload
            frequencies[name] = frequency
            got = float(f"{frequency:.4g}")
            if got != expected[name]:
                tally.fail(f"{name}: {got:.4g} Hz, reference "
                           f"{expected[name]:.4g} Hz")
            else:
                tally.ok()
        best = max(frequencies, key=frequencies.get)
        if best != self.reference["best_shape"]:
            tally.mismatch(f"best shape {best}, reference "
                           f"{self.reference['best_shape']}")
        row_s = unit_medians(rounds)
        timed = [r for r in rounds if not r.traced]
        points = sum(r.payload[2] for r in timed)
        return {
            "tally": tally,
            "end_to_end": {
                "result_ms": 1e3 * sum(row_s.values()),
                "tail_ms": 1e3 * max(row_s.values()),
                "rate_per_s": points / sum(r.seconds for r in timed),
            },
            "named": {"table1_s": sum(row_s.values()),
                      "transients": len(timed),
                      "frequency_hz": frequencies},
            "rounds": rounds,
            "counters_exact": counters_repeat(rounds),
            "trace_overhead_frac": (overhead(rounds)
                                    if tracer is not None else None),
        }
