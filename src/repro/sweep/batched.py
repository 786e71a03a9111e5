"""Blocked sweep evaluation: one deck, many operating points per call.

:class:`BlockedDCSweep` and :class:`BlockedACSweep` are sweep
evaluation functions (``fn(params)``) with a second, faster
personality: ``evaluate_batch(chunk)`` solves a whole chunk of points
through stacked linear algebra instead of one scalar analysis per
point.  :func:`repro.sweep.run_sweep` detects the ``supports_batch``
attribute and routes chunks through the batch path automatically
(under every executor), falling back to scalar calls for warm-start
sweeps, seeded points, and per-lane retries.

Both evaluators share :class:`_BlockedDeckSweep`: built from **deck
text**, not a live circuit, parsing/compiling lazily — pickled to a
persistent pool worker it ships as a couple of kilobytes of netlist,
and the expensive parse + engine compile happens once per worker (the
executor caches the deserialized function by content hash) — after
that only point chunks cross the pipe.

Sweep parameters name independent sources in the deck
(``{"VB": 0.8}``); each level is applied as a residual-row delta
``coeff * (level - base)`` (see :func:`repro.spice.dcop.newton_solve`'s
``rhs_delta``) rather than by mutating and recompiling the circuit.
:class:`BlockedACSweep` additionally accepts linear R/L/C names: their
value overrides are scattered as small-signal G/C deltas through the
precomputed sparse-pattern positions, so the symbolic CSC pattern is
shared across every lane.  Scalar and batched paths apply the
identical delta arithmetic at the identical point of the solve, which
is what makes batched-vs-scalar results bit-identical.

The entry points are compositions of public steps: a bias solve
(:meth:`~_BlockedDeckSweep.solve_bias` /
:meth:`~_BlockedDeckSweep.solve_bias_batch`) and, for AC,
:meth:`BlockedACSweep.solve_small_signal` at the solved points.  A
caller that needs the operating point as well as the AC response (the
corner harness) composes the same steps and solves each bias once.
"""

from __future__ import annotations

import functools
import hashlib
import math
import threading

import numpy as np

from ..errors import AnalysisError, SweepError
from ..spice.dcop import Tolerances, solve_dc, solve_dc_batched
from .costmodel import DEFAULT_COST_MODEL

__all__ = [
    "BlockedDCSweep",
    "BlockedACSweep",
    "node_voltage",
    "solution_vector",
    "ac_node_voltage",
    "ac_gain_db",
    "ac_solution_matrix",
]

_NO_STIMULUS = "AC analysis: no source has an AC stimulus"


def _measure_node(node: str, circuit, x: np.ndarray) -> float:
    index = circuit.node_index(node)
    return 0.0 if index < 0 else float(x[index])


def node_voltage(node: str):
    """A picklable measure extracting one node voltage from the solve."""
    return functools.partial(_measure_node, node)


def solution_vector(circuit, x: np.ndarray) -> np.ndarray:
    """The default DC measure: the full solution vector (copied)."""
    return np.array(x)


def _measure_ac_node(node: str, circuit, solutions: np.ndarray) -> np.ndarray:
    index = circuit.node_index(node)
    if index < 0:
        return np.zeros(solutions.shape[0], dtype=complex)
    return np.array(solutions[:, index])


def ac_node_voltage(node: str):
    """A picklable AC measure: complex node voltage per frequency."""
    return functools.partial(_measure_ac_node, node)


def _measure_ac_gain_db(node: str, circuit, solutions: np.ndarray) -> np.ndarray:
    magnitude = np.abs(_measure_ac_node(node, circuit, solutions))
    return 20.0 * np.log10(np.maximum(magnitude, 1e-300))


def ac_gain_db(node: str):
    """A picklable AC measure: node gain magnitude in dB per frequency."""
    return functools.partial(_measure_ac_gain_db, node)


def ac_solution_matrix(circuit, solutions: np.ndarray) -> np.ndarray:
    """The default AC measure: the full ``(freqs, unknowns)`` complex
    solution matrix (copied)."""
    return np.array(solutions)


class _BlockedDeckSweep:
    """Shared compile-once / content-hashed / picklable deck evaluator.

    Subclasses implement the analysis (``__call__`` and
    ``evaluate_batch``); this base owns deck-text pickling, the lazy
    parse + engine compile, the per-instance solve lock, source
    re-biasing via ``rhs_delta``, the scalar and blocked bias solves,
    and the content-hash cache tag.
    """

    #: run_sweep's opt-in marker for the ``evaluate_batch`` fast path.
    supports_batch = True

    @staticmethod
    def preferred_chunk_size(count: int) -> int:
        """Chunking hint consulted by :func:`~repro.sweep.run_sweep`.

        Blocked evaluation pays its fixed costs (stacked Newton
        iterations, stacked frequency solves) once per chunk, so it
        wants ~8 large chunks where the scalar default targets ~32
        small ones.  Depends only on the point count — chunking stays
        identical across executors, and values are bit-identical under
        any chunking regardless.
        """
        return max(1, math.ceil(count / 8))

    def __init__(self, deck: str, measure=None,
                 tolerances: Tolerances | None = None,
                 gmin: float | None = None,
                 engine: str | None = None):
        if not isinstance(deck, str):
            raise SweepError(
                f"{type(self).__name__} takes deck text (str), got "
                f"{type(deck).__name__}; pass the netlist source so the "
                "evaluator stays picklable"
            )
        self._deck_text = deck
        self._measure = measure
        self._tolerances_arg = tolerances
        self._gmin_arg = gmin
        self._engine_arg = engine
        self._circuit = None
        self._engine = None
        self._tolerances = None
        self._gmin = None
        self._sources: dict[str, tuple[list, float]] = {}
        # The compiled circuit's evaluation buffers are shared state: a
        # thread executor running two chunks through one evaluator would
        # race on them.  Solves are serialized per evaluator instance
        # (process workers each hold their own instance, so this only
        # bites — and only costs — the thread backend).  Re-entrant: the
        # entry points hold it while calling the public solve steps.
        self._lock = threading.RLock()

    # -- pickling: ship the text, rebuild the circuit lazily -----------------

    def __getstate__(self):
        return {
            "deck": self._deck_text,
            "measure": self._measure,
            "tolerances": self._tolerances_arg,
            "gmin": self._gmin_arg,
            "engine": self._engine_arg,
        }

    def __setstate__(self, state):
        self.__init__(state["deck"], measure=state["measure"],
                      tolerances=state["tolerances"], gmin=state["gmin"],
                      engine=state.get("engine"))

    def _tag_extra(self) -> tuple:
        """Subclass hook: extra values folded into the cache tag."""
        return ()

    @property
    def __cache_tag__(self) -> str:
        """Content-hash cache tag: two evaluators over different decks
        (or measures/tolerances/engines/grids) must never share cache
        entries."""
        hasher = hashlib.sha256(self._deck_text.encode())
        hasher.update(repr(self._measure).encode())
        hasher.update(repr(self._tolerances_arg).encode())
        hasher.update(repr(self._gmin_arg).encode())
        hasher.update(repr(self._engine_arg).encode())
        for item in self._tag_extra():
            hasher.update(repr(item).encode())
        return (f"repro.sweep.batched.{type(self).__name__}"
                f"#{hasher.hexdigest()[:16]}")

    # -- lazy compile --------------------------------------------------------

    def _ensure(self):
        if self._circuit is not None:
            return
        from ..spice.engine import resolve_engine
        from ..spice.parser import parse_deck
        from ..spice.runner import _deck_tolerances

        deck = parse_deck(self._deck_text)
        tolerances, gmin = _deck_tolerances(deck)
        self._circuit = deck.circuit
        self._circuit.assign_indices()
        self._engine = resolve_engine(self._circuit, self._engine_arg)
        self._tolerances = (
            self._tolerances_arg
            if self._tolerances_arg is not None
            else (tolerances or Tolerances())
        )
        self._gmin = self._gmin_arg if self._gmin_arg is not None else gmin
        self._compiled(deck)

    def _compiled(self, deck) -> None:
        """Subclass hook: runs once at the end of :meth:`_ensure`."""

    def _find_element(self, name: str):
        for candidate in self._circuit:
            if candidate.name.upper() == name.upper():
                return candidate
        raise SweepError(
            f"deck has no element named {name!r} to sweep; "
            "parameters must name independent V/I sources"
        )

    def _source_info(self, name: str) -> tuple[list, float]:
        info = self._sources.get(name)
        if info is not None:
            return info
        from ..spice.elements.sources import DC

        element = self._find_element(name)
        rows = getattr(element, "rhs_rows", None)
        if rows is None or type(getattr(element, "waveform", None)) is not DC:
            raise SweepError(
                f"element {name!r} is not an independent DC source; "
                f"{type(self).__name__} can only re-bias V/I sources with "
                "DC waveforms"
            )
        info = (list(element.rhs_rows()), float(element.source_value(None)))
        self._sources[name] = info
        return info

    def source_delta(self, params: dict) -> np.ndarray | None:
        """The ``rhs_delta`` vector biasing the deck's sources to
        ``params`` (``None`` for no parameters); every name must be an
        independent DC V/I source, else :class:`~repro.errors.SweepError`."""
        if not params:
            return None
        with self._lock:
            self._ensure()
            delta = np.zeros(self._circuit.num_unknowns)
            for name, level in params.items():
                rows, base = self._source_info(name)
                shift = float(level) - base
                for row, coeff in rows:
                    delta[row] += coeff * shift
            return delta

    def solve_bias(self, delta: np.ndarray | None = None,
                   attempt: int = 0) -> np.ndarray:
        """Scalar bias solve: one operating point at ``rhs_delta`` (see
        :meth:`source_delta`) through the full
        :func:`~repro.spice.dcop.solve_dc` homotopy ladder, with the
        sweep layer's retry ``attempt``."""
        with self._lock:
            self._ensure()
            return solve_dc(
                self._circuit, tolerances=self._tolerances, gmin=self._gmin,
                engine=self._engine, attempt=attempt, rhs_delta=delta,
            )

    def solve_bias_batch(self, deltas: list) -> tuple[np.ndarray, list]:
        """Blocked bias solve: every lane's ``rhs_delta`` in one stacked
        Newton run (:func:`~repro.spice.dcop.solve_dc_batched`).
        Returns ``(x, errors)`` — the ``(lanes, unknowns)`` stack and a
        per-lane ``None`` or :class:`~repro.errors.ConvergenceError`."""
        with self._lock:
            self._ensure()
            return solve_dc_batched(
                self._circuit, deltas, tolerances=self._tolerances,
                gmin=self._gmin, engine=self._engine,
            )


class BlockedDCSweep(_BlockedDeckSweep):
    """Batch-capable DC operating-point evaluator over one deck.

    ``deck`` is SPICE deck text; analysis cards are ignored — only the
    circuit and ``.OPTIONS`` (RELTOL/VNTOL/ABSTOL/ITL1/GMIN) matter.
    ``measure(circuit, x) -> value`` reduces each solved operating point
    (default: the full solution vector); it must be picklable for the
    process executor, e.g. :func:`node_voltage`.

    Point parameters name independent V/I sources and give the DC level
    to solve at; unnamed sources keep their deck values.  The instance
    is picklable and cheap on the wire — workers rebuild the circuit
    lazily, once, and reuse it for every later chunk.

    ``evaluate_batch(chunk)`` solves a whole chunk of operating points
    through :func:`repro.spice.dcop.solve_dc_batched` — a stacked
    Newton iteration with per-lane convergence masking — instead of one
    :func:`solve_dc` per point.
    """

    def __call__(self, params: dict, attempt: int = 0):
        """Scalar path: one operating point through the full
        :func:`~repro.spice.dcop.solve_dc` homotopy ladder."""
        with self._lock:
            x = self.solve_bias(self.source_delta(params), attempt=attempt)
            measure = self._measure or solution_vector
            return measure(self._circuit, x)

    def evaluate_batch(self, chunk_params: list) -> list:
        """Blocked path: solve every point of the chunk in one stacked
        Newton run.  Returns ``[(value, error), ...]`` aligned with the
        chunk — ``error`` is ``None`` on success, else the lane's
        :class:`~repro.errors.ConvergenceError` (value ``None``)."""
        with self._lock:
            x, errors = self.solve_bias_batch(
                [self.source_delta(params) for params in chunk_params])
            measure = self._measure or solution_vector
            return [
                (None, error) if error is not None
                else (measure(self._circuit, x[k]), None)
                for k, error in enumerate(errors)
            ]


class BlockedACSweep(_BlockedDeckSweep):
    """Batch-capable AC small-signal evaluator over one deck.

    Every point is an AC sweep over one frequency grid: bias the deck's
    sources to the point's levels, linearize, then solve
    ``(G + j*omega*C) dx = b`` per frequency.
    ``measure(circuit, solutions) -> value`` reduces the point's
    ``(freqs, unknowns)`` complex solution matrix (default: the full
    matrix); it must be picklable, e.g. :func:`ac_node_voltage` or
    :func:`ac_gain_db`.

    Point parameters may name independent DC V/I sources (re-biased via
    ``rhs_delta``, exactly as :class:`BlockedDCSweep`) **or** linear
    R/L/C elements: a passive override is applied as a small-signal
    G/C stamp delta at the element's precomputed matrix positions —
    ``1/R`` into G, ``C`` into C, ``-L`` into the inductor's branch row
    — without touching the DC bias or the compiled pattern.

    ``frequencies`` is the grid in Hz; ``None`` adopts the deck's
    ``.AC`` card.  ``evaluate_batch(chunk)`` bias-solves all lanes
    through :func:`~repro.spice.dcop.solve_dc_batched`, restamps
    per-lane G/C deltas, and solves the whole chunk as
    ``(lanes x freq_block)`` stacked complex systems through the
    engine's batched entry points — a handful of batched solves instead
    of ``lanes * freqs`` scalar ones, bit-identical to the scalar path.
    """

    def __init__(self, deck: str, measure=None, frequencies=None,
                 tolerances: Tolerances | None = None,
                 gmin: float | None = None,
                 engine: str | None = None):
        super().__init__(deck, measure=measure, tolerances=tolerances,
                         gmin=gmin, engine=engine)
        if frequencies is not None:
            freqs = np.asarray(list(frequencies), dtype=float)
            if freqs.size == 0 or not np.all(np.isfinite(freqs)) \
                    or np.any(freqs <= 0.0):
                raise SweepError(
                    "BlockedACSweep frequencies must be a non-empty grid "
                    "of positive values (Hz)"
                )
            self._frequencies_arg = tuple(float(f) for f in freqs)
        else:
            self._frequencies_arg = None
        self._frequencies = None
        self._omegas = None
        self._rhs = None
        self._sparse = False
        self._params: dict[str, tuple] = {}
        #: Planner hint: blocked complex solves run mostly in
        #: LAPACK/SuperLU with the GIL released, so the thread backend
        #: overlaps far more of the evaluation than scalar python work.
        self.thread_fraction_hint = DEFAULT_COST_MODEL.complex_parallel_fraction

    def __getstate__(self):
        state = super().__getstate__()
        state["frequencies"] = self._frequencies_arg
        return state

    def __setstate__(self, state):
        self.__init__(state["deck"], measure=state["measure"],
                      frequencies=state.get("frequencies"),
                      tolerances=state["tolerances"], gmin=state["gmin"],
                      engine=state.get("engine"))

    def _tag_extra(self) -> tuple:
        return ("ac", self._frequencies_arg)

    @property
    def frequencies(self) -> np.ndarray:
        """The resolved frequency grid (compiles the deck if needed)."""
        with self._lock:
            self._ensure()
            return np.array(self._frequencies)

    # -- compile hooks -------------------------------------------------------

    def _compiled(self, deck) -> None:
        from ..spice.ac import ac_stimulus_rhs, frequency_grid

        if self._frequencies_arg is not None:
            self._frequencies = np.asarray(self._frequencies_arg, dtype=float)
        else:
            card = next(
                (a for a in deck.analyses if a.kind == "ac"), None
            )
            if card is None:
                raise SweepError(
                    "BlockedACSweep needs a frequency grid: pass "
                    "frequencies=... (Hz) or give the deck an .AC card"
                )
            self._frequencies = frequency_grid(
                card.args["start"], card.args["stop"],
                card.args["points"], card.args["sweep"],
            )
        self._omegas = 2.0 * np.pi * self._frequencies
        self._rhs = ac_stimulus_rhs(self._circuit, self._circuit.num_unknowns)
        self._sparse = self._engine.assembly == "sparse"

    # -- parameter classification -------------------------------------------

    def _param_info(self, name: str) -> tuple:
        """Classify one parameter name: ``("source", info)`` or a
        passive override ``(kind, (stamp, base))`` with kind in
        ``"R"/"C"/"L"``.  Cached — classification walks the netlist and
        (sparse) resolves pattern positions once per name."""
        info = self._params.get(name)
        if info is not None:
            return info
        from ..spice.elements.capacitor import Capacitor
        from ..spice.elements.inductor import Inductor
        from ..spice.elements.resistor import Resistor
        from ..spice.elements.sources import DC

        element = self._find_element(name)
        rows = getattr(element, "rhs_rows", None)
        if rows is not None and \
                type(getattr(element, "waveform", None)) is DC:
            info = ("source", self._source_info(name))
        elif isinstance(element, Resistor):
            p, n = element.node_index
            info = ("R", (self._conductance_stamp(p, n),
                          1.0 / float(element.resistance)))
        elif isinstance(element, Capacitor):
            p, n = element.node_index
            info = ("C", (self._conductance_stamp(p, n),
                          float(element.capacitance)))
        elif isinstance(element, Inductor):
            branch = element.branch_index[0]
            info = ("L", (self._conductance_stamp(branch, -1),
                          float(element.inductance)))
        else:
            raise SweepError(
                f"element {name!r} is not an independent DC source or a "
                "linear R/L/C; BlockedACSweep can only re-bias sources "
                "and override passive values"
            )
        self._params[name] = info
        return info

    def _conductance_stamp(self, p: int, n: int) -> tuple:
        """The two-terminal stamp footprint between nodes ``p``/``n``
        (``n < 0``: a single diagonal slot, also used for the inductor's
        branch row): ground-filtered rows/cols/signs plus, under sparse
        assembly, the scatter positions into the shared pattern."""
        if n < 0 and p < 0:
            raise SweepError("cannot override an element with both "
                             "terminals grounded")
        if n < 0 or p < 0:
            node = p if p >= 0 else n
            rows = np.array([node], dtype=np.intp)
            cols = np.array([node], dtype=np.intp)
            signs = np.array([1.0])
        else:
            rows = np.array([p, n, p, n], dtype=np.intp)
            cols = np.array([p, n, n, p], dtype=np.intp)
            signs = np.array([1.0, 1.0, -1.0, -1.0])
        positions = None
        if self._sparse:
            positions, keep = self._engine.pattern.stamp_positions(rows, cols)
            rows, cols, signs = rows[keep], cols[keep], signs[keep]
        return rows, cols, signs, positions

    def _override_deltas(self, params: dict) -> list:
        """Per-point passive overrides as ``(matrix, stamp, delta)``
        triples (``matrix`` is ``"g"`` or ``"c"``); source parameters
        are skipped (they travel through ``rhs_delta``).  Validated
        here so the scalar and batched paths raise identical
        :class:`~repro.errors.SweepError`\\ s per point."""
        out = []
        for name, level in params.items():
            kind, payload = self._param_info(name)
            if kind == "source":
                continue
            stamp, base = payload
            level = float(level)
            if not np.isfinite(level) or (kind == "R" and level == 0.0):
                raise SweepError(
                    f"cannot override {name!r} to {level!r}; passive "
                    "values must be finite (and resistance nonzero)"
                )
            if kind == "R":
                out.append(("g", stamp, 1.0 / level - base))
            elif kind == "C":
                out.append(("c", stamp, level - base))
            else:  # inductor: the branch equation stamps -L into C
                out.append(("c", stamp, -(level - base)))
        return out

    def _delta(self, params: dict) -> np.ndarray | None:
        """Source-only rhs_delta; passive parameters ride separately
        through :meth:`_override_deltas`."""
        return self.source_delta({
            name: level for name, level in params.items()
            if self._param_info(name)[0] == "source"
        })

    # -- evaluation ----------------------------------------------------------

    def _small_signal(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fresh G/C copies linearized at the solved operating point."""
        ctx = self._engine.evaluate(x, gmin=self._gmin, limits={})
        if self._sparse:
            return np.array(ctx.g_mat.values), np.array(ctx.c_mat.values)
        return np.array(ctx.g_mat), np.array(ctx.c_mat)

    @staticmethod
    def _apply_overrides(g_arr, c_arr, overrides) -> None:
        for matrix, stamp, delta in overrides:
            rows, cols, signs, positions = stamp
            target = g_arr if matrix == "g" else c_arr
            if positions is not None:
                np.add.at(target, positions, signs * delta)
            else:
                np.add.at(target, (rows, cols), signs * delta)

    def solve_small_signal(self, x: np.ndarray,
                           chunk_params: list) -> np.ndarray:
        """The AC step at already-solved operating points.

        ``x`` is a ``(lanes, unknowns)`` stack of bias points solved at
        the lanes' source levels (:meth:`solve_bias` /
        :meth:`solve_bias_batch`); ``chunk_params`` holds the lanes'
        point parameters, whose R/L/C overrides are applied to each
        lane's G/C.  All lanes are linearized in one stacked evaluation
        and solved as ``(lanes x freq_block)`` stacked complex systems;
        returns the ``(lanes, freqs, unknowns)`` solutions.  Raises
        :class:`~repro.errors.AnalysisError` when no source carries an
        AC stimulus.
        """
        from ..spice.ac import solve_ac_lanes

        with self._lock:
            self._ensure()
            if not np.any(self._rhs):
                raise AnalysisError(_NO_STIMULUS)
            if len(x) > 1:
                # Each lane's G/C is bit-identical to the scalar
                # _small_signal at that point (a single lane takes the
                # cheaper scalar evaluate); the stacked buffers are
                # freshly allocated, so overrides go straight into them.
                sctx = self._engine.evaluate_stacked(
                    x, gmin=self._gmin, with_c=True
                )
                g_stack, c_stack = sctx.g, sctx.c
            else:
                g, c = self._small_signal(x[0])
                g_stack, c_stack = g[None], c[None]
            for j, params in enumerate(chunk_params):
                self._apply_overrides(g_stack[j], c_stack[j],
                                      self._override_deltas(params))
            return solve_ac_lanes(
                self._engine, g_stack, c_stack, self._omegas, self._rhs
            )

    def __call__(self, params: dict, attempt: int = 0):
        """Scalar path: one full :func:`~repro.spice.dcop.solve_dc`
        homotopy bias solve, then the point's AC sweep as a single
        lane of :meth:`solve_small_signal`."""
        with self._lock:
            self._ensure()
            delta = self._delta(params)
            self._override_deltas(params)  # bad overrides fail pre-solve
            x = self.solve_bias(delta, attempt=attempt)
            solutions = self.solve_small_signal(x[None], [params])[0]
            measure = self._measure or ac_solution_matrix
            return measure(self._circuit, solutions)

    def evaluate_batch(self, chunk_params: list) -> list:
        """Blocked path: one stacked Newton bias solve for the chunk,
        then one :meth:`solve_small_signal` over every solved lane.
        Returns ``[(value, error), ...]`` aligned with the chunk; a
        failed lane carries the identical error the scalar path would
        raise for that point, and never disturbs its neighbours."""
        with self._lock:
            self._ensure()
            results: list = [None] * len(chunk_params)
            lanes: list[int] = []
            lane_deltas: list = []
            for k, params in enumerate(chunk_params):
                try:
                    delta = self._delta(params)
                    self._override_deltas(params)
                except SweepError as error:
                    results[k] = (None, error)
                else:
                    lanes.append(k)
                    lane_deltas.append(delta)
            if not lanes:
                return results
            x, errors = self.solve_bias_batch(lane_deltas)
            solved: list[int] = []
            for i, error in enumerate(errors):
                if error is not None:
                    results[lanes[i]] = (None, error)
                else:
                    solved.append(i)
            if not solved:
                return results
            try:
                solutions = self.solve_small_signal(
                    x[solved], [chunk_params[lanes[i]] for i in solved])
            except AnalysisError as error:
                for i in solved:
                    results[lanes[i]] = (None, error)
                return results
            measure = self._measure or ac_solution_matrix
            for j, i in enumerate(solved):
                results[lanes[i]] = (measure(self._circuit, solutions[j]),
                                     None)
            return results
