"""The qualification harness: every corner through the blocked sweep engine.

:class:`CornerEvaluator` turns a deck plus a :class:`~repro.verify.corners.
CornerSet` into a sweep evaluation function the existing fault-tolerant
engine (:func:`repro.sweep.run_sweep`) can fan out: each sweep point is
one corner's ``{axis: value}`` dict, each value is one corner's outcome
(measurements, device stress quantities, violations).  The evaluator is
picklable (it ships deck text and plain dataclasses), batch-capable
(``supports_batch``/``evaluate_batch``), and content-hashed
(``__cache_tag__``) — so corners ride the same executor matrix, result
cache, ``on_error`` policies and bit-identity contract as every other
sweep in the repo.

Corner mechanics: axes that change the compiled matrix (temperature,
passive scale) are folded into **derived decks** — one evaluator per
distinct deck-level value combination (a
:class:`~repro.sweep.BlockedACSweep` when any measurement is AC, else a
:class:`~repro.sweep.BlockedDCSweep`), compiled once and reused for every
corner in the group — while source axes ride each group's ``rhs_delta``
re-bias path.  Each corner's operating point is solved once; the same
solution feeds the DC measurements, the AC linearization and the stress
checks.  A 27-corner set over 3 temperatures x 3 resistor scales x 3
supply levels therefore compiles 9 corner decks and solves 3 stacked
bias points through each.

:func:`qualify_deck` / :func:`qualify_cell` wrap the whole flow and
return a :class:`~repro.verify.report.QualificationReport`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..sweep import run_sweep
from ..sweep.batched import BlockedACSweep, BlockedDCSweep
from .corners import CornerSet, VerificationError, corners_from_tolerances
from .report import CornerOutcome, QualificationReport
from .stress import DEFAULT_STRESS_RULES, check_stress, device_quantities

__all__ = [
    "MEASUREMENT_KINDS",
    "Measurement",
    "dc_voltage",
    "dc_differential",
    "ac_gain",
    "ac_peak_gain",
    "ac_bandwidth",
    "CornerEvaluator",
    "qualify_deck",
    "qualify_cell",
    "default_corners",
    "default_measurements",
]

#: Measurement kinds and the analysis each one needs.
MEASUREMENT_KINDS = {
    "dc_voltage": "dc",
    "dc_differential": "dc",
    "ac_gain_db": "ac",
    "ac_peak_gain_db": "ac",
    "ac_bandwidth_hz": "ac",
}


@dataclass(frozen=True)
class Measurement:
    """One named quantity extracted from a corner's solved analyses.

    ``node`` (and ``ref`` for differential kinds) name circuit nodes;
    ``frequency`` pins AC gain to the grid point nearest that frequency
    (default: the lowest grid frequency).
    """

    name: str
    kind: str
    node: str
    ref: str = ""
    frequency: float | None = None

    def __post_init__(self):
        if not self.name:
            raise VerificationError("measurement needs a name")
        if self.kind not in MEASUREMENT_KINDS:
            raise VerificationError(
                f"measurement {self.name!r}: unknown kind {self.kind!r}; "
                f"expected one of {tuple(MEASUREMENT_KINDS)}"
            )
        if not self.node:
            raise VerificationError(
                f"measurement {self.name!r} needs a node"
            )
        if self.kind == "dc_differential" and not self.ref:
            raise VerificationError(
                f"measurement {self.name!r}: dc_differential needs a "
                "ref node"
            )

    @property
    def analysis(self) -> str:
        return MEASUREMENT_KINDS[self.kind]

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind, "node": self.node,
                "ref": self.ref, "frequency": self.frequency}

    @classmethod
    def from_dict(cls, data: dict) -> "Measurement":
        try:
            return cls(
                name=data["name"], kind=data["kind"], node=data["node"],
                ref=data.get("ref", ""),
                frequency=data.get("frequency"),
            )
        except (KeyError, TypeError) as exc:
            raise VerificationError(
                f"bad measurement record: {data!r} ({exc})"
            ) from exc


def dc_voltage(name: str, node: str) -> Measurement:
    """DC node voltage at the corner's operating point."""
    return Measurement(name=name, kind="dc_voltage", node=node)


def dc_differential(name: str, node: str, ref: str) -> Measurement:
    """DC voltage difference ``V(node) - V(ref)``."""
    return Measurement(name=name, kind="dc_differential", node=node,
                       ref=ref)


def ac_gain(name: str, node: str,
            frequency: float | None = None) -> Measurement:
    """Small-signal gain magnitude in dB at one grid frequency
    (default: the lowest)."""
    return Measurement(name=name, kind="ac_gain_db", node=node,
                       frequency=frequency)


def ac_peak_gain(name: str, node: str) -> Measurement:
    """Maximum gain magnitude in dB across the frequency grid."""
    return Measurement(name=name, kind="ac_peak_gain_db", node=node)


def ac_bandwidth(name: str, node: str) -> Measurement:
    """-3 dB bandwidth in Hz relative to the lowest-frequency gain
    (the highest grid frequency still within 3 dB)."""
    return Measurement(name=name, kind="ac_bandwidth_hz", node=node)


def _dc_value(measurement: Measurement, circuit, x) -> float:
    index = circuit.node_index(measurement.node)
    value = 0.0 if index < 0 else float(x[index])
    if measurement.kind == "dc_differential":
        ref = circuit.node_index(measurement.ref)
        value -= 0.0 if ref < 0 else float(x[ref])
    return value


def _ac_value(measurement: Measurement, circuit, frequencies,
              solutions) -> float:
    index = circuit.node_index(measurement.node)
    if index < 0:
        magnitude = np.zeros(len(frequencies))
    else:
        magnitude = np.abs(solutions[:, index])
    gain_db = 20.0 * np.log10(np.maximum(magnitude, 1e-300))
    if measurement.kind == "ac_peak_gain_db":
        return float(np.max(gain_db))
    if measurement.kind == "ac_bandwidth_hz":
        within = gain_db >= gain_db[0] - 3.0
        # The highest grid frequency still inside the 3 dB window
        # before the first drop-out (monotone roll-off assumption).
        edge = int(np.argmin(within)) - 1 if not bool(np.all(within)) \
            else len(frequencies) - 1
        return float(frequencies[max(edge, 0)])
    if measurement.frequency is None:
        return float(gain_db[0])
    grid = np.asarray(frequencies, dtype=float)
    return float(gain_db[int(np.argmin(np.abs(grid
                                              - measurement.frequency)))])


class _Group:
    """One derived corner deck: its text and its compiled evaluator."""

    __slots__ = ("deck_text", "sweep", "circuit")

    def __init__(self, deck_text, sweep, circuit):
        self.deck_text = deck_text
        self.sweep = sweep
        self.circuit = circuit


class CornerEvaluator:
    """Batch-capable, picklable corner evaluation function (see module
    docstring).  ``fn(corner.values) -> outcome dict`` with the blocked
    fast path under ``evaluate_batch``."""

    supports_batch = True
    #: Blocked evaluation wants few large chunks, exactly as the sweep
    #: evaluators it drives.
    preferred_chunk_size = staticmethod(BlockedDCSweep.preferred_chunk_size)

    def __init__(self, deck: str, corners: CornerSet, measurements,
                 rules=DEFAULT_STRESS_RULES, frequencies=None,
                 engine: str | None = None):
        if not isinstance(deck, str) or not deck.strip():
            raise VerificationError(
                "CornerEvaluator takes deck text (str); pass the netlist "
                "source so the evaluator stays picklable"
            )
        if not isinstance(corners, CornerSet):
            raise VerificationError(
                f"CornerEvaluator needs a CornerSet, got "
                f"{type(corners).__name__}"
            )
        self._deck_text = deck
        self._corners = corners
        self._measurements = tuple(measurements)
        if not self._measurements:
            raise VerificationError(
                "qualification needs at least one measurement"
            )
        self._rules = tuple(rules)
        self._frequencies_arg = (
            None if frequencies is None
            else tuple(float(f) for f in frequencies)
        )
        self._engine_arg = engine
        self._deck_axes = corners.deck_axes()
        self._source_axes = corners.source_axes()
        self._wants_ac = any(m.analysis == "ac"
                             for m in self._measurements)
        self._base = None
        self._tolerances = None
        self._gmin = None
        self._frequencies = None
        self._groups: dict[tuple, _Group] = {}
        self._lock = threading.Lock()

    # -- pickling ------------------------------------------------------------

    def __getstate__(self):
        return {
            "deck": self._deck_text,
            "corners": self._corners,
            "measurements": self._measurements,
            "rules": self._rules,
            "frequencies": self._frequencies_arg,
            "engine": self._engine_arg,
        }

    def __setstate__(self, state):
        self.__init__(state["deck"], state["corners"],
                      state["measurements"], rules=state["rules"],
                      frequencies=state["frequencies"],
                      engine=state["engine"])

    @property
    def __cache_tag__(self) -> str:
        hasher = hashlib.sha256(self._deck_text.encode())
        hasher.update(repr(self._corners.to_dict()).encode())
        hasher.update(repr(self._measurements).encode())
        hasher.update(repr(self._rules).encode())
        hasher.update(repr(self._frequencies_arg).encode())
        hasher.update(repr(self._engine_arg).encode())
        return f"repro.verify.CornerEvaluator#{hasher.hexdigest()[:16]}"

    # -- lazy compile --------------------------------------------------------

    def _ensure_base(self) -> None:
        if self._base is not None:
            return
        from ..spice.parser import parse_deck
        from ..spice.runner import _deck_tolerances

        deck = parse_deck(self._deck_text)
        self._tolerances, self._gmin = _deck_tolerances(deck)
        if self._frequencies_arg is not None:
            self._frequencies = np.asarray(self._frequencies_arg,
                                           dtype=float)
        elif self._wants_ac:
            from ..spice.ac import frequency_grid

            card = next((a for a in deck.analyses if a.kind == "ac"),
                        None)
            if card is None:
                raise VerificationError(
                    "AC measurements need a frequency grid: pass "
                    "frequencies=... (Hz) or give the deck an .AC card"
                )
            self._frequencies = frequency_grid(
                card.args["start"], card.args["stop"],
                card.args["points"], card.args["sweep"],
            )
        self._base = deck

    def _group_key(self, params: dict) -> tuple:
        try:
            return tuple(float(params[axis.name])
                         for axis in self._deck_axes)
        except KeyError as exc:
            raise VerificationError(
                f"corner point is missing deck-level axis {exc}; points "
                "must carry every axis of the corner set"
            ) from None

    def _source_params(self, params: dict) -> dict:
        out = {}
        for axis in self._source_axes:
            try:
                out[axis.target] = float(params[axis.name])
            except KeyError:
                raise VerificationError(
                    f"corner point is missing source axis "
                    f"{axis.name!r}"
                ) from None
        return out

    def _derived_deck(self, key: tuple) -> str:
        """The corner deck for one deck-level value combination."""
        if not key:
            return self._deck_text
        from ..devices.temperature import celsius
        from ..spice.serialize import circuit_to_deck
        from ..spice.temperature import circuit_at_temperature
        from ..spice.elements.capacitor import Capacitor
        from ..spice.elements.inductor import Inductor
        from ..spice.elements.resistor import Resistor
        from ..spice.netlist import Circuit

        circuit = self._base.circuit
        title = circuit.title or "corner deck"
        for axis, value in zip(self._deck_axes, key):
            if axis.kind == "temperature":
                circuit = circuit_at_temperature(circuit, celsius(value))
            else:
                kinds = {"R": Resistor, "C": Capacitor, "L": Inductor}
                cls = kinds[axis.target]
                scaled = Circuit(circuit.title)
                for element in circuit:
                    if isinstance(element, cls):
                        if cls is Resistor:
                            scaled.add(Resistor(
                                element.name, element.nodes,
                                float(element.resistance) * value))
                        elif cls is Capacitor:
                            scaled.add(Capacitor(
                                element.name, element.nodes,
                                float(element.capacitance) * value,
                                ic=element.ic))
                        else:
                            scaled.add(Inductor(
                                element.name, element.nodes,
                                float(element.inductance) * value,
                                ic=element.ic))
                    else:
                        scaled.add(element)
                circuit = scaled
        tag = "/".join(
            f"{axis.name}={value:g}"
            for axis, value in zip(self._deck_axes, key)
        )
        return circuit_to_deck(circuit, title=f"{title} [{tag}]")

    def _group(self, key: tuple) -> _Group:
        group = self._groups.get(key)
        if group is not None:
            return group
        self._ensure_base()
        deck_text = self._derived_deck(key)
        if self._wants_ac:
            sweep = BlockedACSweep(
                deck_text,
                frequencies=tuple(float(f) for f in self._frequencies),
                tolerances=self._tolerances, gmin=self._gmin,
                engine=self._engine_arg,
            )
        else:
            sweep = BlockedDCSweep(
                deck_text, tolerances=self._tolerances, gmin=self._gmin,
                engine=self._engine_arg,
            )
        sweep._ensure()
        group = _Group(deck_text, sweep, sweep._circuit)
        self._groups[key] = group
        return group

    def prime(self) -> int:
        """Compile every corner deck up front (the service's
        compile-once contract); returns the group count."""
        with self._lock:
            self._ensure_base()
            keys = {self._group_key(corner.values)
                    for corner in self._corners}
            for key in sorted(keys):
                self._group(key)
            return len(self._groups)

    def compilations(self) -> int:
        """Summed engine compile counter across every corner deck —
        the service's recompile guard watches this stay flat."""
        with self._lock:
            return sum(group.sweep._engine.stats.compilations
                       for group in self._groups.values())

    # -- outcome reduction ---------------------------------------------------

    def _outcome(self, group: _Group, x, ac_solutions) -> dict:
        measurements = {}
        for measurement in self._measurements:
            if measurement.analysis == "dc":
                measurements[measurement.name] = _dc_value(
                    measurement, group.circuit, x)
            else:
                measurements[measurement.name] = _ac_value(
                    measurement, group.circuit, self._frequencies,
                    ac_solutions)
        quantities = device_quantities(group.circuit, x)
        violations = check_stress(group.circuit, x, self._rules,
                                  quantities=quantities)
        return {
            "measurements": measurements,
            "quantities": quantities,
            "violations": tuple(violations),
        }

    # -- evaluation ----------------------------------------------------------

    def __call__(self, params: dict, attempt: int = 0) -> dict:
        """Scalar path: one corner through the group's full solve."""
        with self._lock:
            group = self._group(self._group_key(params))
            source_params = self._source_params(params)
            x = group.sweep.solve_bias(
                group.sweep.source_delta(source_params), attempt=attempt)
            solutions = None
            if self._wants_ac:
                solutions = group.sweep.solve_small_signal(
                    x[None], [source_params])[0]
            return self._outcome(group, x, solutions)

    def evaluate_batch(self, chunk_params: list) -> list:
        """Blocked path: lanes grouped by corner deck, each group's bias
        points solved in one stacked Newton run and, with AC
        measurements, small-signal solved at those same points.
        Returns ``[(outcome, error), ...]`` aligned with the chunk —
        per-lane errors identical to what the scalar path raises."""
        with self._lock:
            results: list = [None] * len(chunk_params)
            lanes_by_key: dict[tuple, list[int]] = {}
            for k, params in enumerate(chunk_params):
                try:
                    key = self._group_key(params)
                except VerificationError as error:
                    results[k] = (None, error)
                    continue
                lanes_by_key.setdefault(key, []).append(k)
            for key, lanes in lanes_by_key.items():
                group = self._group(key)
                source_params = []
                kept = []
                for k in lanes:
                    try:
                        source_params.append(
                            self._source_params(chunk_params[k]))
                        kept.append(k)
                    except VerificationError as error:
                        results[k] = (None, error)
                if not kept:
                    continue
                x, errors = group.sweep.solve_bias_batch(
                    [group.sweep.source_delta(p) for p in source_params])
                solved = []
                for j, error in enumerate(errors):
                    if error is not None:
                        results[kept[j]] = (None, error)
                    else:
                        solved.append(j)
                if not solved:
                    continue
                solutions = None
                if self._wants_ac:
                    try:
                        solutions = group.sweep.solve_small_signal(
                            x[solved], [source_params[j] for j in solved])
                    except AnalysisError as error:
                        for j in solved:
                            results[kept[j]] = (None, error)
                        continue
                for i, j in enumerate(solved):
                    # Per-lane capture keeps reduction errors (bad
                    # measurement node, ...) identical to what the
                    # scalar path raises for that corner, instead of
                    # failing the whole chunk.
                    try:
                        results[kept[j]] = (self._outcome(
                            group, x[j],
                            None if solutions is None else solutions[i]),
                            None)
                    except Exception as error:  # noqa: BLE001
                        results[kept[j]] = (None, error)
            return results


def _failure_record(failed) -> dict:
    return {
        "error": failed.error,
        "error_type": failed.error_type,
        "attempts": failed.attempts,
        "report": (failed.report.summary()
                   if failed.report is not None else None),
    }


def qualify_deck(
    deck: str,
    corners: CornerSet,
    measurements,
    *,
    name: str = "deck",
    rules=DEFAULT_STRESS_RULES,
    frequencies=None,
    executor=None,
    jobs=None,
    chunk_size=None,
    cache=None,
    on_error: str = "retry",
    retries: int = 2,
    batch="auto",
    engine: str | None = None,
    evaluator: CornerEvaluator | None = None,
    stats_sink: dict | None = None,
) -> QualificationReport:
    """Qualify one deck: every corner through the sweep engine.

    ``evaluator`` lets a caller (the service) supply a pre-compiled
    :class:`CornerEvaluator` so repeated qualifications reuse the
    per-corner compiled engines; otherwise one is built from the
    arguments.  ``stats_sink["sweep"]`` receives the run's
    :class:`~repro.sweep.SweepStats` when a dict is passed.
    """
    if evaluator is None:
        evaluator = CornerEvaluator(
            deck, corners, measurements, rules=rules,
            frequencies=frequencies, engine=engine,
        )
    started = time.perf_counter()
    result = run_sweep(
        evaluator,
        [dict(corner.values) for corner in corners],
        executor=executor,
        jobs=jobs,
        chunk_size=chunk_size,
        cache=cache,
        on_error=on_error,
        retries=retries,
        batch=batch,
    )
    wall = time.perf_counter() - started
    if stats_sink is not None:
        stats_sink["sweep"] = result.stats
    failures = {failure.index: failure for failure in result.failures}
    outcomes = []
    for corner, value in zip(corners, result.values):
        if value is None:
            outcomes.append(CornerOutcome(
                corner=corner.name,
                values=dict(corner.values),
                measurements=None,
                failure=_failure_record(failures[corner.index]),
            ))
        else:
            outcomes.append(CornerOutcome(
                corner=corner.name,
                values=dict(corner.values),
                measurements=dict(value["measurements"]),
                quantities=value["quantities"],
                violations=tuple(value["violations"]),
            ))
    stats = {
        "executor": result.stats.executor,
        "workers": result.stats.workers,
        "points": result.stats.points,
        "evaluated": result.stats.evaluated,
        "cache_hits": result.stats.cache_hits,
        "failures": result.stats.failures,
        "retries": result.stats.retries,
        "wall_seconds": wall,
        "corners_per_second": (len(result.values) / wall
                               if wall > 0 else 0.0),
        "nominal_corner": corners.nominal().name,
    }
    return QualificationReport(
        name=name,
        axes=[axis.to_dict() for axis in corners.axes],
        outcomes=outcomes,
        rules=[rule.to_dict() for rule in
               (evaluator._rules if evaluator is not None else rules)],
        stats=stats,
    )


def default_corners(deck: str,
                    temperatures_c=(-20.0, 27.0, 85.0),
                    supply_tol: float = 0.1,
                    passive_tol: float = 0.1) -> CornerSet:
    """A sensible corner set derived from the deck itself: temperature,
    resistor-scale, and a min/nom/max axis on the supply (the
    independent DC voltage source with the largest magnitude)."""
    from ..spice.elements.sources import DC, VoltageSource
    from ..spice.parser import parse_deck

    circuit = parse_deck(deck).circuit
    supply = None
    for element in circuit:
        if isinstance(element, VoltageSource) \
                and type(element.waveform) is DC:
            level = float(element.source_value(None))
            if supply is None or abs(level) > abs(supply[1]):
                supply = (element.name, level)
    sources = {}
    if supply is not None and supply[1] != 0.0:
        sources[supply[0]] = (supply[1], supply_tol)
    return corners_from_tolerances(
        sources,
        temperatures_c=temperatures_c,
        passive_tols={"R": passive_tol} if passive_tol else None,
    )


def default_measurements(deck: str) -> tuple:
    """Default measurement set derived from the deck: DC voltage of the
    conventional output nodes (``out``/``outp``/``outn``, else every
    node), plus low-frequency gain and -3 dB bandwidth of the first
    output when the deck carries an AC stimulus and an ``.AC`` card."""
    from ..spice.ac import ac_stimulus_rhs
    from ..spice.parser import parse_deck

    parsed = parse_deck(deck)
    circuit = parsed.circuit
    circuit.assign_indices()
    names = [n for n in circuit.nodes() if n != "0"]
    outputs = [n for n in ("out", "outp", "outn") if n in names]
    if not outputs:
        outputs = sorted(names)
    measurements = [dc_voltage(f"v_{node}", node) for node in outputs]
    has_stimulus = bool(np.any(
        ac_stimulus_rhs(circuit, circuit.num_unknowns)
    ))
    has_grid = any(a.kind == "ac" for a in parsed.analyses)
    if has_stimulus and has_grid:
        measurements.append(ac_gain(f"gain_db_{outputs[0]}", outputs[0]))
        measurements.append(
            ac_bandwidth(f"bw_hz_{outputs[0]}", outputs[0]))
    return tuple(measurements)


def qualify_cell(
    cell,
    corners: CornerSet | None = None,
    measurements=None,
    **kwargs,
) -> QualificationReport:
    """Qualify a cell's transistor-level schematic across corners.

    Defaults are derived from the schematic (:func:`default_corners`,
    :func:`default_measurements`); keyword arguments pass through to
    :func:`qualify_deck`.  Store the result with
    :meth:`repro.celldb.Cell.record_qualification` to make the re-use
    lookup rank this cell by worst-corner headroom.
    """
    deck = getattr(cell, "schematic", "") or ""
    if not deck.strip():
        raise VerificationError(
            f"cell {getattr(cell, 'name', cell)!r} has no "
            "transistor-level schematic to qualify"
        )
    if corners is None:
        corners = default_corners(deck)
    if measurements is None:
        measurements = default_measurements(deck)
    kwargs.setdefault("name", getattr(cell, "name", "cell"))
    return qualify_deck(deck, corners, measurements, **kwargs)
