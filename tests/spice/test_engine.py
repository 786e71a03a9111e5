"""Compiled-engine tests: stamping equivalence against the per-element
reference path, golden analysis agreement on the example decks, linear
solver units and engine caching/instrumentation."""

from pathlib import Path

import numpy as np
import pytest

from repro.errors import AnalysisError
from repro.spice import (
    ACResult,
    Circuit,
    CompiledCircuit,
    DenseLUSolver,
    EngineStats,
    NoiseResult,
    Simulator,
    SparseLUSolver,
    compile_circuit,
    get_engine,
    parse_deck,
    resolve_engine,
    run_deck,
    solve_ac,
    solve_dc,
    solve_transient,
    transfer_function,
)
from repro.spice.elements import (
    BJT,
    CCCS,
    VCVS,
    Capacitor,
    CurrentSource,
    Diode,
    DiodeModel,
    Inductor,
    Pulse,
    Resistor,
    Sine,
    VoltageSource,
)
from repro.spice.mna import load_circuit

DECK_DIR = Path(__file__).resolve().parents[2] / "examples" / "decks"
DECKS = sorted(DECK_DIR.glob("*.cir"))


def deck_circuit(path: Path) -> Circuit:
    return parse_deck(path.read_text()).circuit


def synthetic_circuits(hf_model):
    """Hand-built circuits covering element classes the decks miss."""
    mixed = Circuit("mixed")
    v1 = VoltageSource("V1", ("in", "0"),
                       dc=Pulse(0.0, 1.0, delay=1e-9, rise=1e-9,
                                width=5e-9, period=20e-9))
    mixed.add(v1)
    mixed.add(Resistor("R1", ("in", "a"), 1e3))
    mixed.add(Diode("D1", ("a", "b"), DiodeModel(RS=10.0, CJO=1e-12,
                                                 TT=1e-10)))
    mixed.add(Resistor("R2", ("b", "0"), 2e3))
    mixed.add(Capacitor("C1", ("a", "0"), 1e-12))
    mixed.add(Inductor("L1", ("b", "c"), 1e-9))
    mixed.add(Resistor("R3", ("c", "0"), 50.0))
    mixed.add(VCVS("E1", ("d", "0", "a", "0"), gain=2.0))
    mixed.add(Resistor("R4", ("d", "0"), 1e3))
    mixed.add(CCCS("F1", ("c", "0"), v1, 0.5))

    amp = Circuit("bjt_amp")
    amp.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
    amp.add(VoltageSource("VB", ("b", "0"), dc=0.8, ac_mag=1.0))
    amp.add(Resistor("RL", ("vcc", "c"), 1e3))
    amp.add(BJT("Q1", ("c", "b", "0"), hf_model))
    amp.add(CurrentSource("IB", ("0", "b"), dc=1e-5))
    return [mixed, amp]


def assert_contexts_match(ctx_a, ctx_b, rtol=1e-12, atol=1e-18):
    for attr in ("i_vec", "g_mat", "q_vec", "c_mat"):
        np.testing.assert_allclose(
            getattr(ctx_a, attr), getattr(ctx_b, attr),
            rtol=rtol, atol=atol, err_msg=attr,
        )


class TestStampingEquivalence:
    """engine.evaluate must reproduce load_circuit exactly."""

    @pytest.mark.parametrize("path", DECKS, ids=lambda p: p.stem)
    def test_deck_stamps_match(self, path):
        circuit = deck_circuit(path)
        size = circuit.assign_indices()
        engine = compile_circuit(circuit)
        rng = np.random.default_rng(7)
        for time, scale in ((None, 1.0), (0.0, 1.0), (3.7e-10, 1.0),
                            (None, 0.0), (None, 0.35)):
            x = 0.5 * rng.standard_normal(size)
            limits_a, limits_b = {}, {}
            ctx_a = load_circuit(circuit, x, time=time, limits=limits_a,
                                 source_scale=scale)
            ctx_b = engine.evaluate(x, time=time, limits=limits_b,
                                    source_scale=scale)
            assert_contexts_match(ctx_a, ctx_b)
            assert limits_a.keys() == limits_b.keys()
            for key in limits_a:
                np.testing.assert_allclose(limits_a[key], limits_b[key],
                                           rtol=1e-12, atol=1e-15)

    def test_synthetic_stamps_match(self, hf_model):
        for circuit in synthetic_circuits(hf_model):
            size = circuit.assign_indices()
            engine = compile_circuit(circuit)
            rng = np.random.default_rng(11)
            limits_a, limits_b = {}, {}
            for time in (None, 0.0, 2.5e-9):
                x = 0.4 * rng.standard_normal(size)
                ctx_a = load_circuit(circuit, x, time=time,
                                     limits=limits_a)
                ctx_b = engine.evaluate(x, time=time, limits=limits_b)
                assert_contexts_match(ctx_a, ctx_b)

    def test_pnp_stamps_match(self, hf_model):
        import dataclasses
        pnp_params = dataclasses.replace(hf_model, name="QPNP",
                                         polarity="pnp")
        circuit = Circuit("pnp_stage")
        circuit.add(VoltageSource("VEE", ("vee", "0"), dc=5.0))
        circuit.add(Resistor("RL", ("c", "0"), 1e3))
        circuit.add(BJT("Q1", ("c", "b", "vee"), pnp_params))
        circuit.add(VoltageSource("VB", ("b", "0"), dc=4.2))
        size = circuit.assign_indices()
        engine = compile_circuit(circuit)
        rng = np.random.default_rng(3)
        limits_a, limits_b = {}, {}
        for _ in range(3):
            x = 2.0 + 0.3 * rng.standard_normal(size)
            ctx_a = load_circuit(circuit, x, limits=limits_a)
            ctx_b = engine.evaluate(x, limits=limits_b)
            assert_contexts_match(ctx_a, ctx_b)

    def test_warm_limits_second_evaluation(self, hf_model):
        """Second evaluation reuses pnjlim history identically."""
        circuit = Circuit("warm")
        circuit.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
        circuit.add(Resistor("RL", ("vcc", "c"), 1e3))
        circuit.add(BJT("Q1", ("c", "b", "0"), hf_model))
        circuit.add(VoltageSource("VB", ("b", "0"), dc=0.85))
        size = circuit.assign_indices()
        engine = compile_circuit(circuit)
        rng = np.random.default_rng(5)
        limits_a, limits_b = {}, {}
        for _ in range(4):
            x = 0.9 * rng.standard_normal(size)
            ctx_a = load_circuit(circuit, x, limits=limits_a)
            ctx_b = engine.evaluate(x, limits=limits_b)
            assert_contexts_match(ctx_a, ctx_b)


class TestGoldenAnalyses:
    """The compiled engine must reproduce the per-element re-stamping
    engine's full analyses, recorded in ``legacy_goldens.json``."""

    @pytest.mark.parametrize("path", DECKS, ids=lambda p: p.stem)
    def test_dc_matches(self, path, legacy_goldens):
        x_compiled = solve_dc(deck_circuit(path))
        np.testing.assert_allclose(x_compiled,
                                   legacy_goldens["dc"][path.stem],
                                   rtol=1e-7, atol=1e-9)

    def test_ac_matches(self, legacy_goldens):
        text = (DECK_DIR / "ce_stage.cir").read_text()
        ac_compiled = run_deck(parse_deck(text)).first(ACResult)
        np.testing.assert_allclose(
            ac_compiled.voltage("c"),
            legacy_goldens["run_deck_ce_stage_ac_v_c"],
            rtol=1e-8,
        )

    def test_noise_matches(self, legacy_goldens):
        text = (DECK_DIR / "noise_bench.cir").read_text()
        n_compiled = run_deck(parse_deck(text)).first(NoiseResult)
        np.testing.assert_allclose(
            n_compiled.output_density,
            legacy_goldens["run_deck_noise_bench_output_density"],
            rtol=1e-6,
        )

    def test_transient_matches_on_driven_circuit(self, hf_model,
                                                 legacy_goldens):
        ckt = Circuit("driven")
        ckt.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
        ckt.add(VoltageSource("VIN", ("b", "0"),
                              dc=Sine(offset=0.8, amplitude=0.01,
                                      frequency=1e9)))
        ckt.add(Resistor("RL", ("vcc", "c"), 1e3))
        ckt.add(BJT("Q1", ("c", "b", "0"), hf_model))

        stop = 2e-9
        # Exact-parity golden test: hot-path shortcuts pinned off.
        r_compiled = solve_transient(ckt, stop_time=stop,
                                     max_step=stop / 100,
                                     bypass_tol=0.0, chord=False)
        grid = np.linspace(0.0, stop, 60)
        v_compiled = np.interp(grid, r_compiled.times,
                               r_compiled.voltage("c"))
        np.testing.assert_allclose(v_compiled,
                                   legacy_goldens["transient_driven_v_c"],
                                   atol=2e-4)

    def test_transient_ring_oscillator_initial_window(self, legacy_goldens):
        """The autonomous ring oscillator diverges exponentially from any
        perturbation, so only the initial window is comparable."""
        stop = 3e-10
        # Exact-parity golden test: hot-path shortcuts pinned off.
        r_compiled = solve_transient(
            deck_circuit(DECK_DIR / "ring_oscillator.cir"),
            stop_time=stop, max_step=5e-12, bypass_tol=0.0, chord=False,
        )
        grid = np.linspace(0.0, stop, 40)
        v_compiled = np.interp(grid, r_compiled.times,
                               r_compiled.voltage("c0p"))
        np.testing.assert_allclose(
            v_compiled, legacy_goldens["transient_ring_oscillator_v_c0p"],
            atol=2e-3,
        )

    def test_transfer_function_matches(self, legacy_goldens):
        golden = legacy_goldens["tf_ce_stage_vb_c"]
        tf_compiled = transfer_function(
            deck_circuit(DECK_DIR / "ce_stage.cir"), "VB", "c"
        )
        assert tf_compiled.gain == pytest.approx(golden["gain"], rel=1e-9)
        assert tf_compiled.input_resistance == pytest.approx(
            golden["input_resistance"], rel=1e-9)
        assert tf_compiled.output_resistance == pytest.approx(
            golden["output_resistance"], rel=1e-9)


class TestLinearSolvers:
    def test_dense_solver_solves(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6)) + 6.0 * np.eye(6)
        b = rng.standard_normal(6)
        solver = DenseLUSolver()
        np.testing.assert_allclose(solver.solve(a, b), np.linalg.solve(a, b))

    def test_dense_factorization_reuse(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
        solver = DenseLUSolver()
        stats = EngineStats()
        solver.bind(stats)
        solver.solve(a, rng.standard_normal(5), token=("t",))
        solver.solve(a, rng.standard_normal(5), token=("t",))
        solver.solve(a, rng.standard_normal(5), token=("t",))
        assert stats.factorizations == 1
        assert stats.solves == 3
        solver.invalidate()
        solver.solve(a, rng.standard_normal(5), token=("t",))
        assert stats.factorizations == 2

    def test_dense_token_change_refactorizes(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
        solver = DenseLUSolver()
        stats = EngineStats()
        solver.bind(stats)
        solver.solve(a, rng.standard_normal(4), token=("a",))
        solver.solve(2.0 * a, rng.standard_normal(4), token=("b",))
        assert stats.factorizations == 2

    def test_singular_matrix_raises(self):
        singular = np.zeros((3, 3))
        for solver in (DenseLUSolver(), SparseLUSolver()):
            with pytest.raises(np.linalg.LinAlgError):
                solver.solve(singular, np.ones(3))

    def test_sparse_solver_matches_dense(self):
        rng = np.random.default_rng(3)
        a = np.diag(rng.uniform(1.0, 2.0, 40))
        a[0, 5] = 0.3
        a[5, 0] = 0.2
        b = rng.standard_normal(40)
        np.testing.assert_allclose(
            SparseLUSolver().solve(a, b), np.linalg.solve(a, b),
        )

    def test_dense_assembly_gets_lapack_at_any_size(self):
        # The assembly backend picks the solver: a dense-assembly engine
        # factorizes with LAPACK even far past the sparse crossover.
        ladder = "ladder\nV1 n0 0 DC 1\n" + "\n".join(
            f"R{k} n{k - 1} n{k} 1k" for k in range(1, 1001)
        ) + "\nRL n1000 0 1k\n.OP\n.END\n"
        engine = compile_circuit(parse_deck(ladder).circuit, mode="dense")
        assert engine.size > 1000
        assert engine.assembly == "dense"
        assert isinstance(engine.solver, DenseLUSolver)
        assert engine.stats.solver == "dense-lu"


class TestEngineLifecycle:
    def test_get_engine_caches(self):
        circuit = deck_circuit(DECK_DIR / "ce_stage.cir")
        assert get_engine(circuit) is get_engine(circuit)

    def test_mutation_invalidates_cache(self):
        circuit = deck_circuit(DECK_DIR / "ce_stage.cir")
        engine = get_engine(circuit)
        circuit.add(Resistor("RX", ("c", "0"), 1e6))
        assert get_engine(circuit) is not engine

    def test_stale_engine_rejected(self):
        circuit = deck_circuit(DECK_DIR / "ce_stage.cir")
        engine = get_engine(circuit)
        circuit.add(Resistor("RX", ("c", "0"), 1e6))
        with pytest.raises(AnalysisError):
            resolve_engine(circuit, engine)

    def test_wrong_circuit_rejected(self):
        a = deck_circuit(DECK_DIR / "ce_stage.cir")
        b = deck_circuit(DECK_DIR / "ce_stage.cir")
        with pytest.raises(AnalysisError):
            resolve_engine(a, get_engine(b))

    def test_resolve_strings(self, capsys):
        from repro.cli import main

        circuit = deck_circuit(DECK_DIR / "ce_stage.cir")
        assert isinstance(resolve_engine(circuit, None), CompiledCircuit)
        assert resolve_engine(circuit, "auto") is resolve_engine(circuit)
        for mode in ("dense", "sparse"):
            assert resolve_engine(circuit, mode).assembly == mode
        # Removed selectors fail with a message naming the valid ones.
        for name in ("turbo", "legacy", "compiled"):
            with pytest.raises(AnalysisError) as info:
                resolve_engine(circuit, name)
            for valid in ("'auto'", "'dense'", "'sparse'"):
                assert valid in str(info.value)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(DECK_DIR / "ce_stage.cir"),
                  "--engine", "legacy"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'legacy'" in capsys.readouterr().err

    def test_invalidate_bumps_generation(self):
        circuit = deck_circuit(DECK_DIR / "ce_stage.cir")
        engine = get_engine(circuit)
        circuit.invalidate()
        assert get_engine(circuit) is not engine


class TestInstrumentation:
    def test_operating_point_carries_stats(self):
        circuit = deck_circuit(DECK_DIR / "ce_stage.cir")
        result = Simulator(circuit).operating_point()
        stats = result.stats
        assert isinstance(stats, EngineStats)
        assert stats.assemblies > 0
        assert stats.solves > 0
        assert stats.factorizations >= 1
        assert stats.wall_seconds > 0.0

    def test_linear_circuit_factorizes_once_per_token(self):
        circuit = Circuit("rc")
        circuit.add(VoltageSource("V1", ("in", "0"), dc=1.0))
        circuit.add(Resistor("R1", ("in", "out"), 1e3))
        circuit.add(Resistor("R2", ("out", "0"), 1e3))
        engine = get_engine(circuit)
        solve_dc(circuit, engine=engine)
        first = engine.stats.factorizations
        solve_dc(circuit, engine=engine)
        # Linear circuit + same ("dc",) token: the LU factors are reused.
        assert engine.stats.factorizations == first

    def test_element_evals_exclude_cached_linear_part(self, hf_model):
        circuit = Circuit("amp")
        circuit.add(VoltageSource("VCC", ("vcc", "0"), dc=5.0))
        circuit.add(VoltageSource("VB", ("b", "0"), dc=0.8))
        circuit.add(Resistor("RL", ("vcc", "c"), 1e3))
        circuit.add(BJT("Q1", ("c", "b", "0"), hf_model))
        engine = get_engine(circuit)
        before = engine.stats.element_evals
        engine.evaluate(np.zeros(engine.size))
        # 2 sources + 1 BJT re-evaluated; the resistor comes from G0.
        assert engine.stats.element_evals - before == 3

    def test_transient_and_ac_carry_stats(self):
        circuit = Circuit("rc")
        circuit.add(VoltageSource("V1", ("in", "0"),
                                  dc=Pulse(0.0, 1.0, rise=1e-9, width=1e-6,
                                           period=1e-3),
                                  ac_mag=1.0))
        circuit.add(Resistor("R1", ("in", "out"), 1e3))
        circuit.add(Capacitor("C1", ("out", "0"), 1e-9))
        tran = solve_transient(circuit, stop_time=5e-6)
        assert tran.stats is not None and tran.stats.solves > 0
        ac = solve_ac(circuit, np.array([1e3, 1e6]))
        assert ac.stats is not None and ac.stats.solves >= 2

    def test_stats_since_and_summary(self):
        stats = EngineStats()
        stats.solves = 5
        stats.wall_seconds = 0.25
        snap = stats.copy()
        stats.solves = 9
        delta = stats.since(snap)
        assert delta.solves == 4
        assert "solves" in stats.summary()
        assert stats.as_dict()["solves"] == 9

    def test_deck_run_profile_report(self):
        text = (DECK_DIR / "ce_stage.cir").read_text()
        run = run_deck(parse_deck(text))
        report = run.profile()
        assert ".OP" in report and ".AC" in report
        assert "total engine wall time" in report

    def test_cli_profile_flag(self, capsys):
        from repro.cli import main
        assert main(["run", str(DECK_DIR / "ce_stage.cir"),
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "engine profile:" in out
        assert "solves" in out
