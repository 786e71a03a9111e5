"""Exact work counters: each corner deck compiles once and each corner's
operating point is solved once.

The 81-corner UPMIX-1300 set (3 temperatures x 3 resistor scales x 3
supply x 3 input-bias levels, 9 corner decks) carries DC and AC
measurements plus stress checks; one DC solve per corner must feed all
three.
"""

import pytest

from repro.celldb import seed_database
from repro.spice import dcop
from repro.spice.engine import GLOBAL_STATS
from repro.sweep import batched
from repro.verify import (
    CornerEvaluator,
    CornerSet,
    default_measurements,
    qualify_deck,
    scale_axis,
    source_axis,
    temperature_axis,
)

#: cell -> its input-bias source axis (name, nominal level).
CELLS = {"UPMIX-1300": ("VRF", 0.85), "PHASE90-IF": ("VB", 2.5)}


def _corners(cell: str) -> CornerSet:
    bias, nominal = CELLS[cell]
    return CornerSet([
        temperature_axis((-20, 27, 85)),
        scale_axis("R", 0.1),
        source_axis("V1", 5.0, 0.1),
        source_axis(bias, nominal, 0.05),
    ])


CORNERS = _corners("UPMIX-1300")
CORNER_DECKS = 9

#: Engine assemblies for the 81 corners (blocked or scalar): one bias
#: Newton plus one small-signal linearization per corner.
ASSEMBLY_BASELINE = {"UPMIX-1300": 882, "PHASE90-IF": 486}

EXECUTOR_MATRIX = (
    {"executor": "serial"},
    {"executor": "thread", "jobs": 2},
    {"executor": "process", "jobs": 2},
    {"executor": "auto"},
)


@pytest.fixture(scope="module")
def deck():
    return seed_database().get("UPMIX-1300").schematic


@pytest.fixture(scope="module")
def measurements(deck):
    found = default_measurements(deck)
    assert {m.analysis for m in found} == {"dc", "ac"}
    return found


@pytest.fixture
def dc_solves(monkeypatch):
    """Counts DC Newton lane-solves: lanes entering the stacked Newton
    plus scalar ``solve_dc`` calls (sweep scalar path or blocked
    fallback)."""
    counts = {"lanes": 0, "scalar": 0}
    stacked, scalar = dcop.newton_solve_batched, dcop.solve_dc

    def counted_stacked(circuit, x0, *args, **kwargs):
        counts["lanes"] += len(x0)
        return stacked(circuit, x0, *args, **kwargs)

    def counted_scalar(*args, **kwargs):
        counts["scalar"] += 1
        return scalar(*args, **kwargs)

    monkeypatch.setattr(dcop, "newton_solve_batched", counted_stacked)
    monkeypatch.setattr(dcop, "solve_dc", counted_scalar)
    monkeypatch.setattr(batched, "solve_dc", counted_scalar)
    return counts


def _records(report):
    return [outcome.to_dict() for outcome in report.outcomes]


@pytest.fixture(scope="module")
def scalar_reference(deck, measurements):
    return qualify_deck(deck, CORNERS, measurements, executor="serial",
                        batch=False)


class TestSolveOnce:
    def test_blocked_solves_each_corner_once(self, deck, measurements,
                                             dc_solves):
        evaluator = CornerEvaluator(deck, CORNERS, measurements)
        evaluator.prime()
        report = qualify_deck(deck, CORNERS, measurements,
                              executor="serial", evaluator=evaluator)
        assert report.stats["failures"] == 0
        assert dc_solves == {"lanes": len(CORNERS), "scalar": 0}

    def test_scalar_path_solves_each_corner_once(self, deck, measurements,
                                                 dc_solves):
        qualify_deck(deck, CORNERS, measurements, executor="serial",
                     batch=False)
        assert dc_solves == {"lanes": 0, "scalar": len(CORNERS)}

    def test_one_scalar_call_runs_one_solve_dc(self, deck, measurements,
                                               dc_solves):
        evaluator = CornerEvaluator(deck, CORNERS, measurements)
        outcome = evaluator(dict(CORNERS.nominal().values))
        assert set(outcome["measurements"]) == {m.name
                                                for m in measurements}
        assert dc_solves == {"lanes": 0, "scalar": 1}

    def test_compilations_equal_corner_decks(self, deck, measurements):
        evaluator = CornerEvaluator(deck, CORNERS, measurements)
        assert evaluator.prime() == CORNER_DECKS
        assert evaluator.compilations() == CORNER_DECKS
        qualify_deck(deck, CORNERS, measurements, executor="serial",
                     evaluator=evaluator)
        assert evaluator.compilations() == CORNER_DECKS

    def test_dc_only_measurements_compile_once_per_deck(self, deck,
                                                        measurements,
                                                        dc_solves):
        dc_only = [m for m in measurements if m.analysis == "dc"]
        evaluator = CornerEvaluator(deck, CORNERS, dc_only)
        assert evaluator.prime() == CORNER_DECKS
        qualify_deck(deck, CORNERS, dc_only, executor="serial",
                     evaluator=evaluator)
        assert evaluator.compilations() == CORNER_DECKS
        assert dc_solves == {"lanes": len(CORNERS), "scalar": 0}

    @pytest.mark.parametrize("cell", sorted(CELLS))
    @pytest.mark.parametrize("batch", (True, False),
                             ids=("blocked", "scalar"))
    def test_assemblies_at_or_below_baseline(self, cell, batch):
        text = seed_database().get(cell).schematic
        corners = _corners(cell)
        found = default_measurements(text)
        evaluator = CornerEvaluator(text, corners, found)
        evaluator.prime()
        before = GLOBAL_STATS.assemblies
        qualify_deck(text, corners, found, executor="serial", batch=batch,
                     evaluator=evaluator)
        assert GLOBAL_STATS.assemblies - before <= ASSEMBLY_BASELINE[cell]


class TestParity:
    @pytest.mark.parametrize("backend", EXECUTOR_MATRIX,
                             ids=lambda kw: kw["executor"])
    def test_blocked_matches_scalar_serial(self, deck, measurements,
                                           scalar_reference, backend):
        blocked = qualify_deck(deck, CORNERS, measurements, batch=True,
                               **backend)
        assert blocked.stats["failures"] == 0
        assert _records(blocked) == _records(scalar_reference)
