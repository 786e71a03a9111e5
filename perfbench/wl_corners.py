"""corner_sweeps: the sweep mix, every sweep with ``executor="auto"`` and
``jobs=2``.

Each round qualifies UPMIX-1300 and PHASE90-IF over 525 corners each
(7 temperatures x 3 resistor scales x 5 supply x 5 input-bias levels, 21
corner decks per cell), runs three seeded 400-point Monte-Carlo
``BlockedACSweep`` sweeps on ``ce_stage.cir``, then repeats the small Fig. 9
``ft_curve`` and Fig. 5 ``fig5_sweep`` sweeps, which are overhead-bound
and where ``auto`` must stay serial.  It exercises lane blocking, stacked
device evaluation, process dispatch and IPC.  The seed draws the
Monte-Carlo bias points and the corners checked against the scalar path.

Engine counters are reported as observed, not exact: process workers'
work never reaches the parent's GLOBAL_STATS.
"""

from __future__ import annotations

import multiprocessing
import statistics
from pathlib import Path

import numpy as np

from util import HOST, Deadline, Tally, median, overhead, run_rounds

DECKS = Path(__file__).resolve().parents[1] / "examples" / "decks"
JOBS = 2
CELLS = (
    ("UPMIX-1300", "VRF", 0.85, 0.05),
    ("PHASE90-IF", "VB", 2.5, 0.05),
)
TEMPERATURES_C = (-40.0, -20.0, 0.0, 27.0, 50.0, 85.0, 125.0)
SUPPLY = ("V1", 5.0, 0.1)
SOURCE_LEVELS = 5
SCALAR_SAMPLES = 8  # corners per cell and round re-solved on the scalar path
MC_POINTS = 400
MC_BIAS = (0.60, 0.85)
MC_SCALAR_SAMPLES = 10
MC_REPEATS = 3  # Monte-Carlo sweeps per round, each on fresh points
SMALL_REPEATS = 20
FT_CURRENTS = tuple(float(i) for i in np.geomspace(1e-4, 2e-2, 16))
FIG5_PHASES = tuple(float(p) for p in np.linspace(0.0, 10.0, 11))
FIG5_GAINS = (0.01, 0.03, 0.05, 0.07, 0.09)
#: The paper's zero-phase Fig. 5 intercepts, 1 % and 9 % gain error.
FIG5_INTERCEPTS_DB = {0.01: 46.1, 0.09: 27.3}
FT_RTOL = 1e-9


def source_levels(element: str, nominal: float, rel_tol: float):
    from repro.verify import CornerAxis

    values = np.linspace(nominal * (1 - rel_tol), nominal * (1 + rel_tol),
                         SOURCE_LEVELS)
    return CornerAxis(name=element, kind="source", target=element,
                      levels=tuple((f"l{i}", float(v))
                                   for i, v in enumerate(values)))


def corner_set(bias: str, nominal: float, rel_tol: float):
    from repro.verify import CornerSet, scale_axis, temperature_axis

    return CornerSet([
        temperature_axis(TEMPERATURES_C),
        scale_axis("R", 0.1),
        source_levels(*SUPPLY),
        source_levels(bias, nominal, rel_tol),
    ])


def fig9_models() -> dict:
    from repro.geometry import (
        FIG9_SHAPES, ModelParameterGenerator, default_reference,
    )

    generator = ModelParameterGenerator(reference=default_reference())
    return {name: generator.generate(name) for name in FIG9_SHAPES}


def ft_curves(models=None, executor=None, jobs=None) -> dict:
    """Fig. 9: fT (Hz) over ``FT_CURRENTS`` for each shape."""
    from repro.devices import ft_curve

    models = models or fig9_models()
    return {name: [point.ft for point in ft_curve(
        model, FT_CURRENTS, executor=executor, jobs=jobs)]
        for name, model in models.items()}


class Workload:
    exact_counters = False
    host_scaled = True

    def __init__(self, seed: int, references: dict):
        self.reference = references["corner_sweeps"]
        self.rng = np.random.default_rng(seed)

    def setup(self) -> None:
        from repro.celldb import seed_database
        from repro.sweep import BlockedACSweep, ac_gain_db, run_sweep
        from repro.verify import CornerEvaluator, default_measurements

        db = seed_database()
        self.cells = []
        for name, bias, nominal, rel_tol in CELLS:
            deck = db.get(name).schematic
            corners = corner_set(bias, nominal, rel_tol)
            measurements = default_measurements(deck)
            blocked = CornerEvaluator(deck, corners, measurements)
            scalar = CornerEvaluator(deck, corners, measurements)
            blocked.prime()
            scalar.prime()
            self.cells.append((name, deck, corners, measurements, blocked,
                               scalar))
        deck = (DECKS / "ce_stage.cir").read_text()
        self.mc = BlockedACSweep(deck, measure=ac_gain_db("c"))
        self.mc_scalar = BlockedACSweep(deck, measure=ac_gain_db("c"))
        self.models = fig9_models()
        # Start the two pool workers here, not inside the first round.
        warm = [{"VB": v} for v in (0.7, 0.75, 0.8, 0.85)]
        with HOST.paused():
            run_sweep(self.mc, warm, executor="process", jobs=JOBS,
                      chunk_size=1)
        self.mc_scalar(warm[0])

    def teardown(self) -> None:
        from repro.sweep import shutdown_pools

        shutdown_pools()
        for child in multiprocessing.active_children():
            child.join(timeout=60)

    # -- one round -----------------------------------------------------------

    def _qualify(self, cell, tally: Tally) -> float:
        from repro.verify import qualify_deck

        name, deck, corners, measurements, blocked, scalar = cell
        start = HOST.clock()
        with HOST.paused():
            report = qualify_deck(deck, corners, measurements, name=name,
                                  executor="auto", jobs=JOBS,
                                  evaluator=blocked)
        seconds = HOST.clock() - start
        failures = report.stats["failures"]
        if failures:
            tally.fail(f"{name}: {failures} corners failed to solve",
                       failures, wrong=False)
        tally.ok(len(report.outcomes) - failures)
        if not report.passed():
            tally.mismatch(f"{name}: qualification no longer passes")
        for index in self.rng.choice(len(report.outcomes), SCALAR_SAMPLES,
                                     replace=False):
            outcome = report.outcomes[index]
            want = scalar(dict(outcome.values))
            if (outcome.measurements != want["measurements"]
                    or outcome.quantities != want["quantities"]
                    or tuple(outcome.violations)
                    != tuple(want["violations"])):
                tally.mismatch(f"{name} corner {outcome.corner}: blocked "
                           "outcome differs from the scalar serial path")
        return seconds

    def _monte_carlo(self, tally: Tally) -> float:
        from repro.sweep import run_sweep

        points = [{"VB": float(v)}
                  for v in self.rng.uniform(*MC_BIAS, size=MC_POINTS)]
        start = HOST.clock()
        with HOST.paused():
            result = run_sweep(self.mc, points, executor="auto", jobs=JOBS)
        seconds = HOST.clock() - start
        tally.ok(MC_POINTS)
        for index in self.rng.choice(MC_POINTS, MC_SCALAR_SAMPLES,
                                     replace=False):
            if not np.array_equal(result.values[index],
                                  self.mc_scalar(points[index])):
                tally.mismatch(f"Monte-Carlo AC point {index} differs from "
                           "the scalar path")
        return seconds

    def _small_sweeps(self, tally: Tally) -> float:
        from repro.rfsystems import fig5_sweep

        start = HOST.clock()
        curves = ft_curves(self.models, executor="auto", jobs=JOBS)
        fig5 = fig5_sweep(FIG5_PHASES, FIG5_GAINS, executor="auto",
                          jobs=JOBS)
        seconds = HOST.clock() - start
        expected = self.reference["ft_hz"]
        problems = [f"Fig. 9 fT curve of {name} left the reference"
                    for name, fts in curves.items()
                    if not np.allclose(fts, expected[name], rtol=FT_RTOL,
                                       atol=0)]
        peaks = [int(np.argmax(fts)) for fts in curves.values()]
        if peaks != sorted(peaks) or peaks[0] >= peaks[-1]:
            problems.append(f"Fig. 9 peak currents out of order: {peaks}")
        for gain, intercept in FIG5_INTERCEPTS_DB.items():
            if round(fig5[gain][0][1], 1) != intercept:
                problems.append(
                    f"Fig. 5 intercept at {gain:.0%} gain error is "
                    f"{fig5[gain][0][1]:.2f} dB, not {intercept}")
        for gain in FIG5_GAINS:
            irrs = [irr for _, irr in fig5[gain]]
            if any(a < b for a, b in zip(irrs, irrs[1:])):
                problems.append(f"Fig. 5 curve {gain:.0%} is not monotone")
        if problems:
            tally.fail("; ".join(problems))
        else:
            tally.ok()
        return seconds

    def measure(self, seconds: float, tracer=None) -> dict:
        tally = Tally()

        def one_round():
            qualify = [self._qualify(cell, tally) for cell in self.cells]
            mc = [self._monte_carlo(tally) for _ in range(MC_REPEATS)]
            small = [self._small_sweeps(tally)
                     for _ in range(SMALL_REPEATS)]
            return qualify, mc, small

        rounds = run_rounds(Deadline(seconds), [one_round], tracer)
        timed = [r for r in rounds if not r.traced]
        qualify_s = sum(sum(r.payload[0]) for r in timed)
        mc_s = [s for r in timed for s in r.payload[1]]
        small_s = [s for r in timed for s in r.payload[2]]
        corners = len(timed) * sum(len(cell[2]) for cell in self.cells)
        return {
            "tally": tally,
            "end_to_end": {
                "result_ms": 1e3 * statistics.fmean(small_s),
                "tail_ms": 1e3 * median(mc_s),
                "rate_per_s": corners / qualify_s,
            },
            "named": {
                "corners_per_s": corners / qualify_s,
                "mc_ac_points_per_s": MC_POINTS * len(mc_s) / sum(mc_s),
                "small_sweeps_s": statistics.fmean(small_s),
                "rounds": len(timed),
            },
            "rounds": rounds,
            "counters_exact": False,
            "trace_overhead_frac": (overhead(rounds)
                                    if tracer is not None else None),
        }
