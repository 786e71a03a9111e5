"""Batched-vs-scalar DC parity: the blocked solve must be invisible.

The contract under test: routing a sweep chunk through
``BlockedDCSweep.evaluate_batch`` (one stacked Newton for the whole
chunk) instead of per-point ``solve_dc`` calls changes *nothing*
observable — values are bit-identical, failed points produce identical
:class:`~repro.sweep.FailedPoint` records (same error repr, same
:class:`~repro.errors.ConvergenceReport` forensics, same attempt
counts), under every executor and every ``on_error`` policy.

The injected non-convergent lane is a NaN source level: a non-finite
residual defeats Newton, every gmin rung and source stepping alike, so
the failure is deterministic and identical in scalar and batched runs
(the batched path's failed lanes re-live the scalar ladder exactly).
"""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConvergenceError, SweepError
from repro.spice.dcop import (
    Tolerances,
    newton_solve,
    newton_solve_batched,
    solve_dc,
    solve_dc_batched,
)
from repro.spice.engine import (
    DenseLUSolver,
    SparseLUSolver,
    resolve_engine,
)
from repro.spice.lint import check_circuit
from repro.spice.parser import parse_deck
from repro.sweep import BlockedDCSweep, node_voltage, run_sweep

DECKS = Path(__file__).resolve().parents[2] / "examples" / "decks"
DECK_TEXT = (DECKS / "ce_stage.cir").read_text()

#: Sweep levels for the CE stage's base source; chosen to bias the BJT
#: from near-off through active so lanes converge on different paths.
VB_LEVELS = [0.55, 0.62, 0.68, 0.72, 0.75, 0.78, 0.80, 0.82]

#: A diode clamp driven by a swept DC source.  The diode is a scalar
#: nonlinear element, so the engine cannot stack its lanes and the
#: blocked Newton takes its per-lane ``evaluate`` loop instead.
DIODE_DECK = """diode clamp with a DC-swept drive
.MODEL DX D(IS=1e-14 N=1.05 RS=5 CJO=2p TT=5n)
VIN in 0 DC 0.7 AC 1
R1 in a 1k
D1 a 0 DX
C1 a 0 1p
.OP
.AC DEC 5 1MEG 1G
.END
"""
DIODE_POINTS = [{"VIN": level} for level in (0.3, 0.6, 0.8, 1.5, 3.0)]

EXECUTOR_MATRIX = (
    {"executor": "serial"},
    {"executor": "thread", "jobs": 2},
    {"executor": "process", "jobs": 2},
    {"executor": "auto"},
)


def _points(inject_failure=False):
    levels = list(VB_LEVELS)
    if inject_failure:
        levels[3] = float("nan")
    return [{"VB": level} for level in levels]


def _failure_records(result):
    # repr() the params/report: the injected level is NaN, and NaN != NaN
    # would make identical records compare unequal.
    return [
        (f.index, repr(f.params), f.error, f.error_type, f.attempts,
         repr(f.report))
        for f in result.failures
    ]


class TestBlockedSolverParity:
    """The engine-layer stack: batched Newton vs scalar Newton."""

    def test_newton_stack_bitwise_equals_scalar_lanes(self):
        deck = parse_deck(DECK_TEXT)
        circuit = deck.circuit
        circuit.assign_indices()
        engine = resolve_engine(circuit, None)
        tolerances = Tolerances()
        size = circuit.num_unknowns

        deltas = []
        base = circuit.element("VB").source_value(None)
        row, coeff = circuit.element("VB").rhs_rows()[0]
        for level in VB_LEVELS:
            delta = np.zeros(size)
            delta[row] = coeff * (level - base)
            deltas.append(delta)

        stack, converged = newton_solve_batched(
            circuit, np.zeros((len(deltas), size)), tolerances, 1e-12,
            rhs_deltas=deltas, engine=engine,
        )
        assert converged.all()
        for delta, lane in zip(deltas, stack):
            scalar = newton_solve(
                circuit, np.zeros(size), tolerances, 1e-12,
                engine=engine, jacobian_token=("dc",), rhs_delta=delta,
            )
            np.testing.assert_array_equal(lane, scalar)

    def test_solve_dc_batched_matches_scalar_ladder(self):
        deck = parse_deck(DECK_TEXT)
        circuit = deck.circuit
        circuit.assign_indices()
        size = circuit.num_unknowns
        row, coeff = circuit.element("VB").rhs_rows()[0]
        base = circuit.element("VB").source_value(None)
        deltas = []
        for level in [0.6, float("nan"), 0.8]:
            delta = np.zeros(size)
            delta[row] = coeff * (level - base)
            deltas.append(delta)

        x, errors = solve_dc_batched(circuit, deltas)
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], ConvergenceError)
        assert np.isnan(x[1]).all()
        for k in (0, 2):
            np.testing.assert_array_equal(
                x[k], solve_dc(circuit, rhs_delta=deltas[k])
            )
        with pytest.raises(ConvergenceError) as excinfo:
            solve_dc(circuit, rhs_delta=deltas[1])
        assert str(excinfo.value) == str(errors[1])
        assert excinfo.value.report.stage == errors[1].report.stage

    @pytest.mark.parametrize("solver_cls", (DenseLUSolver, SparseLUSolver))
    def test_solve_batched_exact_bitwise_per_backend(self, solver_cls):
        rng = np.random.default_rng(7)
        systems = rng.standard_normal((5, 6, 6)) + 3.0 * np.eye(6)
        rhs = rng.standard_normal((5, 6))
        solver = solver_cls()
        batched = solver.solve_batched_exact(systems, rhs)
        for k in range(5):
            np.testing.assert_array_equal(
                batched[k], solver.solve(systems[k], rhs[k])
            )

    @pytest.mark.parametrize("solver_cls", (DenseLUSolver, SparseLUSolver))
    def test_solve_batched_exact_nan_fills_singular_lane(self, solver_cls):
        systems = np.stack([np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)])
        rhs = np.ones((3, 3))
        out = solver_cls().solve_batched_exact(systems, rhs)
        np.testing.assert_array_equal(out[0], np.ones(3))
        assert np.isnan(out[1]).all()
        np.testing.assert_array_equal(out[2], 0.5 * np.ones(3))


class TestSweepParityMatrix:
    """Every executor x every on_error policy x an injected bad lane."""

    @pytest.fixture(scope="class")
    def evaluator(self):
        return BlockedDCSweep(DECK_TEXT, measure=node_voltage("c"))

    @pytest.fixture(scope="class")
    def scalar_reference(self, evaluator):
        return {
            policy: run_sweep(evaluator, _points(inject_failure=True),
                              batch=False, on_error=policy, chunk_size=4)
            for policy in ("skip", "retry")
        }

    @pytest.mark.parametrize("backend", EXECUTOR_MATRIX,
                             ids=lambda kw: kw["executor"])
    @pytest.mark.parametrize("policy", ("skip", "retry"))
    def test_bit_identical_values_and_failures(self, evaluator,
                                               scalar_reference, backend,
                                               policy):
        reference = scalar_reference[policy]
        run = run_sweep(evaluator, _points(inject_failure=True),
                        batch="auto", on_error=policy, chunk_size=4,
                        **backend)
        assert run.values == reference.values
        assert _failure_records(run) == _failure_records(reference)
        assert run.stats.failures == 1
        if policy == "retry":
            assert run.stats.retries == reference.stats.retries > 0

    @pytest.mark.parametrize("backend", EXECUTOR_MATRIX,
                             ids=lambda kw: kw["executor"])
    def test_raise_policy_raises_identical_error(self, evaluator, backend):
        with pytest.raises(ConvergenceError) as scalar_exc:
            run_sweep(evaluator, _points(inject_failure=True),
                      batch=False, on_error="raise", chunk_size=4)
        with pytest.raises(ConvergenceError) as batched_exc:
            run_sweep(evaluator, _points(inject_failure=True),
                      batch="auto", on_error="raise", chunk_size=4,
                      **backend)
        assert str(batched_exc.value) == str(scalar_exc.value)
        assert (batched_exc.value.report.stage
                == scalar_exc.value.report.stage)

    @pytest.mark.parametrize("backend", EXECUTOR_MATRIX,
                             ids=lambda kw: kw["executor"])
    def test_clean_sweep_bit_identical(self, evaluator, backend):
        reference = run_sweep(evaluator, _points(), batch=False,
                              chunk_size=3)
        run = run_sweep(evaluator, _points(), batch="auto", chunk_size=3,
                        **backend)
        assert run.values == reference.values
        assert run.ok


class TestScalarDynamicLanes:
    """Blocked DC on a circuit with a scalar-dynamic element (a diode),
    which the stacked Newton assembly loads lane by lane."""

    @pytest.mark.parametrize("mode", ("dense", "sparse"))
    def test_diode_batch_bitwise_equals_scalar(self, mode):
        circuit = parse_deck(DIODE_DECK).circuit
        assert check_circuit(circuit) == []
        fn = BlockedDCSweep(DIODE_DECK, measure=node_voltage("a"),
                            engine=mode)
        scalar = [fn(p) for p in DIODE_POINTS]
        batched = fn.evaluate_batch(DIODE_POINTS)
        assert [value for value, _ in batched] == scalar
        assert all(error is None for _, error in batched)


class TestBatchOptIn:
    def test_batch_true_requires_capability(self):
        with pytest.raises(SweepError, match="supports_batch"):
            run_sweep(lambda p: p["x"], [{"x": 1}], batch=True)

    def test_batch_false_uses_scalar_path(self):
        calls = []

        class Spy(BlockedDCSweep):
            def evaluate_batch(self, chunk_params):
                calls.append(len(chunk_params))
                return super().evaluate_batch(chunk_params)

        spy = Spy(DECK_TEXT, measure=node_voltage("c"))
        run_sweep(spy, _points(), batch=False, chunk_size=4)
        assert calls == []
        run_sweep(spy, _points(), batch="auto", chunk_size=4)
        assert sum(calls) == len(VB_LEVELS)

    def test_seeded_points_fall_back_to_scalar(self):
        calls = []

        class Spy(BlockedDCSweep):
            def evaluate_batch(self, chunk_params):
                calls.append(len(chunk_params))
                return super().evaluate_batch(chunk_params)

            def __call__(self, params, attempt=0, rng=None):
                return super().__call__(params, attempt=attempt)

        from repro.sweep import SweepPoint

        spy = Spy(DECK_TEXT, measure=node_voltage("c"))
        points = [SweepPoint(index=i, params={"VB": v}, seed=i)
                  for i, v in enumerate(VB_LEVELS)]
        result = run_sweep(spy, points, batch="auto", chunk_size=4)
        assert calls == []
        assert result.ok

    def test_unknown_parameter_is_a_sweep_error(self):
        fn = BlockedDCSweep(DECK_TEXT)
        with pytest.raises(SweepError, match="no element named"):
            fn({"VBOGUS": 1.0})

    def test_non_source_parameter_is_a_sweep_error(self):
        fn = BlockedDCSweep(DECK_TEXT)
        with pytest.raises(SweepError, match="independent DC source"):
            fn({"RC": 2e3})

    def test_deck_must_be_text(self):
        with pytest.raises(SweepError, match="deck text"):
            BlockedDCSweep(parse_deck(DECK_TEXT))


class TestCacheTag:
    def test_cache_tag_distinguishes_decks_and_measures(self):
        a = BlockedDCSweep(DECK_TEXT)
        b = BlockedDCSweep(DECK_TEXT + "\n* trailing comment")
        c = BlockedDCSweep(DECK_TEXT, measure=node_voltage("c"))
        tags = {a.__cache_tag__, b.__cache_tag__, c.__cache_tag__}
        assert len(tags) == 3

    def test_run_sweep_cache_uses_the_tag(self):
        from repro.sweep import ResultCache
        from repro.sweep.orchestrator import _evaluation_tag

        fn = BlockedDCSweep(DECK_TEXT, measure=node_voltage("c"))
        assert _evaluation_tag(fn, require_code=True) == fn.__cache_tag__

        cache = ResultCache()
        first = run_sweep(fn, _points(), cache=cache, chunk_size=4)
        second = run_sweep(fn, _points(), cache=cache, chunk_size=4)
        assert second.values == first.values
        assert second.stats.cache_hits == len(VB_LEVELS)
        assert second.stats.evaluated == 0

    def test_pickle_round_trip_preserves_identity(self):
        import pickle

        fn = BlockedDCSweep(DECK_TEXT, measure=node_voltage("c"))
        clone = pickle.loads(pickle.dumps(fn))
        assert clone.__cache_tag__ == fn.__cache_tag__
        assert clone({"VB": 0.75}) == fn({"VB": 0.75})
