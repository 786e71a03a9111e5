"""Batched frequency-domain solves vs the per-frequency reference path.

The batched AC/noise sweeps assemble G and C once and solve each block
of frequencies as one stacked ``(block, n, n)`` system.  These tests pin
the batched results against (a) the ``batched=False`` per-frequency
loop on the same engine, and (b) the per-frequency outputs of the
removed per-element re-stamping engine, recorded in
``legacy_goldens.json`` — on every example deck that carries the
relevant analysis card.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.spice.ac import ac_block_size, frequency_grid, solve_ac
from repro.spice.engine import DenseLUSolver, SparseLUSolver
from repro.spice.noise import solve_noise
from repro.spice.parser import parse_deck

DECKS = Path(__file__).resolve().parents[2] / "examples" / "decks"


def _deck(name):
    return parse_deck((DECKS / name).read_text())


def _card(deck, kind):
    for card in deck.analyses:
        if card.kind == kind:
            return card
    raise AssertionError(f"deck has no .{kind.upper()} card")


def _grid(card):
    return frequency_grid(card.args["start"], card.args["stop"],
                          card.args["points"], card.args["sweep"])


class TestBlockSizing:
    def test_small_systems_cap_at_512(self):
        assert ac_block_size(2) == 512
        assert ac_block_size(10) == 512

    def test_budget_shrinks_with_system_size(self):
        big = ac_block_size(500)
        assert 1 <= big < 512
        assert ac_block_size(1000) < big

    def test_never_below_one(self):
        assert ac_block_size(10 ** 6) == 1

    def test_explicit_limit(self):
        # 16 bytes/entry * n^2 = 6400 bytes/system at n=20.
        assert ac_block_size(20, limit=64_000) == 10


class TestBatchedSolver:
    def _stack(self, count, n, seed):
        rng = np.random.default_rng(seed)
        systems = (rng.standard_normal((count, n, n))
                   + 1j * rng.standard_normal((count, n, n))
                   + 4.0 * np.eye(n))
        return systems, rng

    @pytest.mark.parametrize("solver_cls", [DenseLUSolver, SparseLUSolver])
    def test_single_rhs_matches_per_system_solves(self, solver_cls):
        systems, rng = self._stack(5, 6, seed=0)
        rhs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        solver = solver_cls()
        batched = solver.solve_batched(systems, rhs)
        assert batched.shape == (5, 6)
        for k in range(5):
            np.testing.assert_allclose(
                batched[k], np.linalg.solve(systems[k], rhs),
                rtol=1e-10, atol=1e-12,
            )

    @pytest.mark.parametrize("solver_cls", [DenseLUSolver, SparseLUSolver])
    def test_multi_rhs(self, solver_cls):
        systems, rng = self._stack(4, 5, seed=1)
        rhs = (rng.standard_normal((4, 5, 3))
               + 1j * rng.standard_normal((4, 5, 3)))
        batched = solver_cls().solve_batched(systems, rhs)
        assert batched.shape == (4, 5, 3)
        for k in range(4):
            np.testing.assert_allclose(
                batched[k], np.linalg.solve(systems[k], rhs[k]),
                rtol=1e-10, atol=1e-12,
            )

    def test_batched_solves_are_counted(self):
        from repro.spice.engine import EngineStats

        systems, rng = self._stack(3, 4, seed=2)
        rhs = rng.standard_normal(4).astype(complex)
        solver = DenseLUSolver()
        sink = EngineStats()
        solver.bind(sink)
        solver.solve_batched(systems, rhs)
        assert sink.factorizations == 3
        assert sink.solves == 3


class TestBatchedACRegression:
    @pytest.mark.parametrize("deck_name", ["ce_stage.cir",
                                           "noise_bench.cir"])
    def test_batched_equals_unbatched(self, deck_name):
        deck = _deck(deck_name)
        card = _card(deck, "ac" if deck_name == "ce_stage.cir"
                     else "noise")
        freqs = _grid(card)
        batched = solve_ac(deck.circuit, freqs, batched=True)
        loop = solve_ac(deck.circuit, freqs, batched=False)
        np.testing.assert_array_equal(batched.frequencies,
                                      loop.frequencies)
        np.testing.assert_allclose(batched.solutions, loop.solutions,
                                   rtol=1e-12, atol=1e-15)

    def test_batched_equals_legacy_engine(self, legacy_goldens):
        deck = _deck("ce_stage.cir")
        freqs = _grid(_card(deck, "ac"))
        batched = solve_ac(deck.circuit, freqs)
        np.testing.assert_allclose(
            batched.solutions, legacy_goldens["solve_ac_ce_stage_solutions"],
            rtol=1e-9, atol=1e-12,
        )

    def test_block_boundaries_are_seamless(self):
        # Force tiny blocks by monkeypatching would hide the real path;
        # instead sweep more frequencies than one block at a realistic
        # size and check against the loop.
        deck = _deck("ce_stage.cir")
        freqs = frequency_grid(1e3, 1e9, 200, "dec")
        batched = solve_ac(deck.circuit, freqs, batched=True)
        loop = solve_ac(deck.circuit, freqs, batched=False)
        np.testing.assert_allclose(batched.solutions, loop.solutions,
                                   rtol=1e-12, atol=1e-15)

    def test_single_frequency_uses_plain_solve(self):
        deck = _deck("ce_stage.cir")
        result = solve_ac(deck.circuit, [1e6], batched=True)
        assert result.solutions.shape[0] == 1


class TestBatchedNoiseRegression:
    def test_batched_equals_unbatched_on_noise_bench(self):
        deck = _deck("noise_bench.cir")
        card = _card(deck, "noise")
        freqs = _grid(card)
        kwargs = dict(input_source=card.args["source"])
        batched = solve_noise(deck.circuit, card.args["output"], freqs,
                              batched=True, **kwargs)
        loop = solve_noise(deck.circuit, card.args["output"], freqs,
                           batched=False, **kwargs)
        np.testing.assert_allclose(batched.output_density,
                                   loop.output_density,
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(batched.gain_squared,
                                   loop.gain_squared,
                                   rtol=1e-12, atol=0.0)
        assert set(batched.contributions) == set(loop.contributions)
        for name, values in batched.contributions.items():
            np.testing.assert_allclose(values, loop.contributions[name],
                                       rtol=1e-9, atol=1e-30)

    def test_batched_equals_legacy_engine(self, legacy_goldens):
        deck = _deck("noise_bench.cir")
        card = _card(deck, "noise")
        freqs = _grid(card)
        batched = solve_noise(deck.circuit, card.args["output"], freqs,
                              input_source=card.args["source"])
        legacy = legacy_goldens["solve_noise_noise_bench"]
        np.testing.assert_allclose(batched.output_density,
                                   legacy["output_density"], rtol=1e-8)
        np.testing.assert_allclose(batched.gain_squared,
                                   legacy["gain_squared"], rtol=1e-8)

    def test_batched_without_input_source(self):
        deck = _deck("noise_bench.cir")
        card = _card(deck, "noise")
        freqs = _grid(card)
        batched = solve_noise(deck.circuit, card.args["output"], freqs,
                              batched=True)
        loop = solve_noise(deck.circuit, card.args["output"], freqs,
                           batched=False)
        assert batched.gain_squared is None
        np.testing.assert_allclose(batched.output_density,
                                   loop.output_density, rtol=1e-12)
