"""Compiled-circuit evaluation core.

The per-element reference path (:func:`repro.spice.mna.load_circuit`)
walks every element on every Newton iteration and re-stamps all of them
into freshly allocated matrices.  For the circuits this package targets —
dozens of BJTs surrounded by a largely linear bias/load network — most of
that work is identical from one iteration to the next.

:class:`CompiledCircuit` partitions the elements once, at compile time:

* **linear elements** (R, C, L, controlled sources, and the Jacobian part
  of independent sources) are stamped a single time into cached constant
  matrices ``G0``/``C0``; per evaluation their residual contribution is
  the matrix-vector product ``G0 @ x`` (and ``C0 @ x`` for charges),
* **independent sources** reduce to a handful of precomputed
  ``(row, coeff)`` entries whose values are refreshed from the waveform
  every evaluation (so in-place waveform mutation, as done by DC sweeps,
  keeps working),
* **nonlinear elements** are evaluated per iteration into preallocated
  buffers.  Gummel-Poon BJTs — by far the dominant cost in this package's
  benchmarks — are evaluated as a single vectorized group
  (:class:`BJTGroup`): one numpy pass over all devices, scattered into
  the matrices with ``np.add.at`` through index arrays built at compile
  time.  Any other nonlinear element (diodes, BJT subclasses) falls back
  to its scalar :meth:`~repro.spice.netlist.Element.load_dynamic`.

The same assembly runs lane-stacked: :meth:`CompiledCircuit.evaluate_stacked`
assembles a ``(lanes, n)`` stack of solutions for the blocked DC, AC and
corner paths.  Scalar and stacked assembly share the constant-stamp and
source code and, for the BJT group, one device kernel
(:meth:`BJTGroup._stamp_values`); scalar-dynamic elements are loaded per
lane into row views of the stacked buffers.  Every lane is therefore
bit-identical to a scalar :meth:`~CompiledCircuit.evaluate` at that
lane's solution.

Behind the engine sits a :class:`LinearSolver`, picked by the assembly
backend that :class:`~repro.spice.solvercost.SolverCostModel` chose from
the compiled pattern's ``nnz``: dense assembly factorizes with LAPACK
(:class:`DenseLUSolver`), sparse assembly with SuperLU
(:class:`SparseLUSolver`, column ordering from the deck's
``.OPTIONS PERMC=``).  Both keep their last factorization and reuse it
when the caller passes the same ``token`` — which the analyses do for
chord iterations (transient steps, DC sweeps of linear networks).

Engine work is counted in :class:`EngineStats`, both per engine and into
the module-level :data:`GLOBAL_STATS` accumulator that the benchmark
harness snapshots; every count goes through :func:`_bump`.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, fields

import numpy as np
from scipy import sparse as _sp
from scipy.linalg import lapack as _lapack
from scipy.sparse import linalg as _spla

from ..devices.gummel_poon import EXP_LIMIT
from ..errors import AnalysisError
from .elements.bjt import BJT
from .elements.diode import Diode
from .elements.sources import DC as DCWaveform
from .mna import LoadContext
from .netlist import Circuit
from .solvercost import DEFAULT_SOLVER_COST_MODEL
from .sparse import PatternMatrix, SparsityPattern


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------


@dataclass
class EngineStats:
    """Counters for the work an engine performed.

    Every analysis stores a snapshot-delta of these on its result object;
    the module-level :data:`GLOBAL_STATS` accumulates across all engines
    for whole-process profiling (benchmark harness, ``repro run
    --profile``).
    """

    #: Individual element evaluations (nonlinear devices + source values);
    #: cached linear stamps are free and intentionally not counted.
    element_evals: int = 0
    #: Full system assemblies (one per Newton/chord iteration).
    assemblies: int = 0
    #: LU factorizations performed by the linear solver.
    factorizations: int = 0
    #: Linear-system solves (back-substitutions).
    solves: int = 0
    #: Circuit compilations (matrix partitioning passes).
    compilations: int = 0
    #: Wall-clock seconds (filled in by analysis-level deltas).
    wall_seconds: float = 0.0
    #: Name of the linear-solver backend in use.
    solver: str = ""
    #: Sweep points orchestrated through :mod:`repro.sweep`.
    sweep_points: int = 0
    #: Sweep points served from the content-hash result cache.
    sweep_cache_hits: int = 0
    #: Summed per-point evaluation wall time across sweeps.
    sweep_point_seconds: float = 0.0
    #: Peak sweep worker count (a gauge, not a counter).
    sweep_workers: int = 0
    #: Sweep points that failed under a skip/retry on_error policy.
    sweep_failures: int = 0
    #: Nonlinear device evaluations skipped because their terminal
    #: voltages moved less than the bypass tolerance (cached stamps
    #: were replayed instead).
    bypassed_evals: int = 0
    #: Linear solves served from a previously factorized Jacobian by the
    #: chord (modified Newton) iteration.
    jacobian_reuses: int = 0
    #: Chord-Newton refactorizations forced by degraded convergence.
    refactorizations: int = 0
    #: Assemblies that filled a flat nnz-length sparse data array.
    sparse_assemblies: int = 0
    #: Assemblies that filled a dense ``(n, n)`` matrix buffer.
    dense_assemblies: int = 0
    #: Sparse factorizations that reused the compiled symbolic pattern
    #: (zero-copy CSC over the fixed structure — no re-analysis, no
    #: dense scan, no conversion).
    pattern_reuses: int = 0
    #: Structural non-zeros of the compiled sparsity pattern (gauge).
    pattern_nnz: int = 0
    #: Non-zeros of the most recent sparse LU factorization, L + U
    #: combined (gauge; ``pattern_nnz`` vs this is the fill-in ratio).
    factor_nnz: int = 0
    #: Fill-in ratio of the most recent sparse LU factorization:
    #: ``factor nnz / matrix nnz`` (gauge).  Directly reflects the
    #: column ordering (``permc_spec``) — COLAMD keeps it low where
    #: NATURAL lets L+U fill in — and feeds the solver cost model's
    #: sparse-vs-dense crossover.
    fill_ratio: float = 0.0
    #: Matrix assembly backend chosen at compile time ("dense"/"sparse").
    assembly: str = ""

    _COUNTERS = (
        "element_evals",
        "assemblies",
        "factorizations",
        "solves",
        "compilations",
        "sweep_points",
        "sweep_cache_hits",
        "sweep_failures",
        "bypassed_evals",
        "jacobian_reuses",
        "refactorizations",
        "sparse_assemblies",
        "dense_assemblies",
        "pattern_reuses",
    )

    def copy(self) -> "EngineStats":
        return EngineStats(
            **{f.name: getattr(self, f.name) for f in fields(self)}
        )

    def since(self, snapshot: "EngineStats") -> "EngineStats":
        """Counter deltas relative to an earlier :meth:`copy`."""
        delta = self.copy()
        for name in self._COUNTERS:
            setattr(delta, name, getattr(self, name) - getattr(snapshot, name))
        delta.wall_seconds = self.wall_seconds - snapshot.wall_seconds
        delta.sweep_point_seconds = (
            self.sweep_point_seconds - snapshot.sweep_point_seconds
        )
        return delta

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        text = (
            f"{self.assemblies} assemblies, {self.element_evals} element "
            f"evals, {self.factorizations} factorizations, {self.solves} "
            f"solves [{self.solver or 'n/a'}] in {self.wall_seconds * 1e3:.2f} ms"
        )
        if self.bypassed_evals:
            text += f"; {self.bypassed_evals} bypassed device evals"
        if self.jacobian_reuses or self.refactorizations:
            text += (
                f"; chord: {self.jacobian_reuses} jacobian reuses, "
                f"{self.refactorizations} refactorizations"
            )
        if self.assembly:
            text += f"; assembly: {self.assembly}"
        if self.sparse_assemblies or self.pattern_nnz:
            fill = self.fill_ratio or (
                self.factor_nnz / self.pattern_nnz
                if self.pattern_nnz and self.factor_nnz else 0.0
            )
            text += (
                f"; sparse: {self.pattern_nnz} nnz pattern, "
                f"{self.sparse_assemblies} sparse assemblies, "
                f"{self.pattern_reuses} pattern reuses"
            )
            if fill:
                text += f", fill-in {fill:.1f}x"
        if self.sweep_points:
            text += (
                f"; {self.sweep_points} sweep points "
                f"({self.sweep_cache_hits} cached, "
                f"{self.sweep_workers} worker(s), "
                f"{self.sweep_point_seconds * 1e3:.2f} ms point time)"
            )
            if self.sweep_failures:
                text += f"; {self.sweep_failures} failed sweep point(s)"
        return text


#: Process-wide accumulator; engines bump it alongside their own counters.
GLOBAL_STATS = EngineStats()


def _bump(sinks, **deltas) -> None:
    """Add each ``name=n`` of ``deltas`` to that field of every stat sink."""
    for sink in sinks:
        for attr, n in deltas.items():
            setattr(sink, attr, getattr(sink, attr) + n)


def _set(sinks, attr: str, value) -> None:
    """Set the ``attr`` gauge of every stat sink."""
    for sink in sinks:
        setattr(sink, attr, value)


class _timed_stats:
    """Context manager adding elapsed wall time to one or more stat sinks."""

    def __init__(self, *sinks: EngineStats):
        self.sinks = sinks

    def __enter__(self):
        self._t0 = _time.perf_counter()
        return self

    def __exit__(self, *exc):
        _bump(self.sinks, wall_seconds=_time.perf_counter() - self._t0)
        return False


# ---------------------------------------------------------------------------
# linear solvers
# ---------------------------------------------------------------------------


class LinearSolver:
    """Pluggable dense/sparse linear-solver interface.

    ``solve(a, b, token=...)`` solves ``a @ x = b``.  A non-``None``
    ``token`` promises that ``a`` is identical to the previous call that
    passed the same token, allowing backends to reuse a factorization
    (chord / Newton-Richardson iteration).  Singular systems raise
    :class:`numpy.linalg.LinAlgError` so callers keep their existing
    convergence-failure handling.
    """

    name = "numpy-dense"

    def __init__(self):
        self._sinks: tuple[EngineStats, ...] = ()

    def bind(self, *sinks: EngineStats) -> None:
        """Attach stat accumulators (engine stats + global stats)."""
        self._sinks = sinks

    def _count(self, **deltas) -> None:
        _bump(self._sinks, **deltas)

    def _gauge(self, attr: str, value) -> None:
        _set(self._sinks, attr, value)

    def invalidate(self) -> None:
        """Drop any cached factorization."""

    def has_factorization(self, token) -> bool:
        """True when a factorization stored under ``token`` is alive."""
        return False

    def solve_cached(self, b: np.ndarray) -> np.ndarray:
        """Back-substitute against the live factorization.

        Only valid immediately after :meth:`has_factorization` returned
        True; chord-Newton uses this to skip refactorizing an unchanged
        (or deliberately frozen) Jacobian.
        """
        raise AnalysisError(
            f"{self.name} backend holds no cached factorization"
        )

    def solve(self, a: np.ndarray, b: np.ndarray, token=None) -> np.ndarray:
        self._count(factorizations=1, solves=1)
        return np.linalg.solve(a, b)

    def solve_batched(self, systems: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
        """Solve a stack of systems ``systems[k] @ x[k] = rhs[k]``.

        ``systems`` has shape ``(batch, n, n)``; ``rhs`` is either one
        shared vector ``(n,)``, a per-system vector stack ``(batch, n)``
        or a multi-RHS stack ``(batch, n, k)``.  The dense default is a
        single broadcast LAPACK call over the whole batch — one C-level
        dispatch instead of a Python loop — which is what makes blocked
        AC/noise sweeps fast.  Counters tally one factorization and one
        solve per system so batched and per-frequency paths report
        comparable work.
        """
        systems = np.asarray(systems)
        count = systems.shape[0]
        self._count(factorizations=count, solves=count)
        rhs = np.asarray(rhs)
        if rhs.ndim == 1:
            rhs = np.broadcast_to(rhs, (count, rhs.shape[0]))
        if rhs.ndim == 2:
            return np.linalg.solve(systems, rhs[:, :, None])[:, :, 0]
        return np.linalg.solve(systems, rhs)

    def solve_batched_exact(self, systems: np.ndarray,
                            rhs: np.ndarray) -> np.ndarray:
        """Per-system :meth:`solve` over a ``(batch, n, n)`` stack.

        The blocked DC path's contract: every lane must be **bit-identical**
        to the scalar Newton path on the same backend.  The broadcast
        :meth:`solve_batched` cannot promise that — numpy's batched
        ``gesv`` and scipy's ``getrf``/``getrs`` (what
        :class:`DenseLUSolver` runs per point) differ in the last ulp —
        so this routine simply loops the backend's own scalar ``solve``.
        A singular lane comes back filled with NaN instead of raising,
        so one pathological operating point cannot abort the block;
        callers already treat a non-finite Newton step as that lane's
        convergence failure.
        """
        systems = np.asarray(systems)
        rhs = np.asarray(rhs)
        out = np.empty_like(rhs, dtype=np.result_type(systems, rhs))
        for k in range(systems.shape[0]):
            try:
                out[k] = self.solve(systems[k], rhs[k])
            except np.linalg.LinAlgError:
                out[k] = np.nan
        return out


class DenseLUSolver(LinearSolver):
    """Dense LU via ``scipy.linalg.lu_factor`` with factorization reuse."""

    name = "dense-lu"

    def __init__(self):
        super().__init__()
        self._token = None
        self._factor = None

    def invalidate(self) -> None:
        self._token = None
        self._factor = None

    def has_factorization(self, token) -> bool:
        return (
            token is not None
            and self._factor is not None
            and token == self._token
        )

    def solve_cached(self, b: np.ndarray) -> np.ndarray:
        if self._factor is None:
            raise AnalysisError("no cached LU factorization to reuse")
        self._count(solves=1, jacobian_reuses=1)
        lu, piv, getrs = self._factor
        x, _info = getrs(lu, piv, b)
        return x

    def solve(self, a: np.ndarray, b: np.ndarray, token=None) -> np.ndarray:
        if (
            token is not None
            and self._factor is not None
            and token == self._token
        ):
            self._count(solves=1)
            lu, piv, getrs = self._factor
            x, _info = getrs(lu, piv, b)
            return x
        # Raw LAPACK getrf/getrs: identical math to lu_factor/lu_solve
        # minus scipy's per-call python wrapper overhead, which is
        # measurable at this call rate.  ``piv`` stays in LAPACK's
        # 1-based convention and is only ever handed back to getrs.
        if np.iscomplexobj(a):
            getrf, getrs = _lapack.zgetrf, _lapack.zgetrs
        else:
            getrf, getrs = _lapack.dgetrf, _lapack.dgetrs
        size = a.shape[0]
        # Feed the dense/sparse cost model real factorization timings;
        # below 64 unknowns the perf_counter overhead rivals getrf
        # itself and dense always wins anyway, so skip the clock.
        clock = size >= 64
        t0 = _time.perf_counter() if clock else 0.0
        lu, piv, info = getrf(a)
        if clock:
            DEFAULT_SOLVER_COST_MODEL.observe(
                "dense", size, None, _time.perf_counter() - t0
            )
        if info > 0 or not np.all(np.isfinite(lu)):
            self.invalidate()
            raise np.linalg.LinAlgError("singular matrix in LU factorization")
        self._count(factorizations=1, solves=1)
        if token is not None:
            self._token, self._factor = token, (lu, piv, getrs)
        # An anonymous (token=None) factorization must not clobber a
        # factorization cached under a live token: batched fallbacks and
        # one-off solves used to call invalidate() here, silently
        # defeating chord reuse for the caller that owned the token.
        x, _info = getrs(lu, piv, b)
        return x


class SparseLUSolver(LinearSolver):
    """Sparse LU via ``scipy.sparse.linalg.splu``.

    Takes the :class:`~repro.spice.sparse.PatternMatrix` systems of the
    sparse assembly path, whose fixed CSC structure wraps into ``splu``
    with zero copies and zero dense scans.  A dense ndarray is converted
    per call; only the per-frequency noise loop hands it one (its
    adjoint ``system.T`` is dense).

    ``permc_spec`` selects SuperLU's fill-reducing column ordering:
    ``"COLAMD"`` (approximate minimum degree), ``"NATURAL"`` (no
    reordering), or the ``MMD_*`` variants; ``None`` keeps SuperLU's
    default.  The resulting fill-in ratio (factor nnz over matrix nnz)
    is recorded on :class:`EngineStats` and observed by the solver cost
    model, so the sparse-vs-dense crossover tracks the ordering
    actually in effect.
    """

    name = "sparse-lu"

    #: Column orderings scipy's splu accepts.
    PERMC_SPECS = ("COLAMD", "NATURAL", "MMD_ATA", "MMD_AT_PLUS_A")

    def __init__(self, permc_spec: str | None = None):
        super().__init__()
        if permc_spec is not None:
            permc_spec = str(permc_spec).upper()
            if permc_spec not in self.PERMC_SPECS:
                raise AnalysisError(
                    f"unknown permc_spec {permc_spec!r}; expected one of "
                    f"{self.PERMC_SPECS}"
                )
        self.permc_spec = permc_spec
        self._token = None
        self._factor = None
        #: The SparsityPattern of the last factorization; an identical
        #: pattern on the next factorization means the symbolic
        #: structure was reused (counted as ``pattern_reuses``).
        self._last_pattern = None

    def _splu(self, matrix):
        """``splu`` with the configured column ordering; singularity
        surfaces as ``LinAlgError`` like the dense backends."""
        try:
            if self.permc_spec is not None:
                return _spla.splu(matrix, permc_spec=self.permc_spec)
            return _spla.splu(matrix)
        except RuntimeError as exc:  # "Factor is exactly singular"
            self.invalidate()
            raise np.linalg.LinAlgError(str(exc)) from exc

    def invalidate(self) -> None:
        self._token = None
        self._factor = None

    def _factorize(self, a):
        """splu of a dense array or PatternMatrix; counts + calibrates."""
        if isinstance(a, PatternMatrix):
            matrix = a.to_csc()
            if a.pattern is self._last_pattern:
                self._count(pattern_reuses=1)
            self._last_pattern = a.pattern
        else:
            matrix = _sp.csc_matrix(np.asarray(a))
            self._last_pattern = None
        t0 = _time.perf_counter()
        factor = self._splu(matrix)
        fill = factor.nnz / max(matrix.nnz, 1)
        DEFAULT_SOLVER_COST_MODEL.observe(
            "sparse", matrix.shape[0], matrix.nnz,
            _time.perf_counter() - t0, fill=fill,
        )
        self._count(factorizations=1)
        self._gauge("factor_nnz", int(factor.nnz))
        self._gauge("fill_ratio", float(fill))
        return factor

    def has_factorization(self, token) -> bool:
        return (
            token is not None
            and self._factor is not None
            and token == self._token
        )

    def solve_cached(self, b: np.ndarray) -> np.ndarray:
        if self._factor is None:
            raise AnalysisError("no cached LU factorization to reuse")
        self._count(solves=1, jacobian_reuses=1)
        return self._factor.solve(b)

    def solve(self, a: np.ndarray, b: np.ndarray, token=None) -> np.ndarray:
        if (
            token is not None
            and self._factor is not None
            and token == self._token
        ):
            self._count(solves=1)
            return self._factor.solve(b)
        factor = self._factorize(a)
        self._count(solves=1)
        if token is not None:
            self._token, self._factor = token, factor
        # token=None: leave any token-cached factorization alone (see
        # DenseLUSolver.solve) — per-frequency AC fallbacks and batched
        # loops used to wipe the chord factor here on every call.
        return factor.solve(b)

    def solve_pattern_batched(self, pattern: SparsityPattern,
                              data: np.ndarray, rhs: np.ndarray,
                              transpose: bool = False) -> np.ndarray:
        """Solve a stack of systems sharing one sparsity pattern.

        ``data`` has shape ``(batch, nnz)`` (one value vector per
        system over the compiled pattern — e.g. ``G + j*omega_k*C`` per
        frequency); ``rhs`` is ``(n,)`` shared, ``(batch, n)`` or
        ``(batch, n, k)``.  ``transpose=True`` solves ``A.T x = b``
        (noise adjoint systems) while keeping the transpose sparse.
        Every lane reuses the symbolic pattern — no dense staging
        array is ever built.
        """
        data = np.asarray(data)
        rhs = np.asarray(rhs)
        batch = data.shape[0]
        shared = rhs.ndim == 1
        out = np.empty(
            (batch, pattern.size) + rhs.shape[2:],
            dtype=np.result_type(data.dtype, rhs.dtype),
        )
        self._count(factorizations=batch, solves=batch,
                    pattern_reuses=batch)
        self._last_pattern = pattern
        for k in range(batch):
            matrix = pattern.csc(data[k])
            if transpose:
                matrix = matrix.T.tocsc()
            factor = self._splu(matrix)
            out[k] = factor.solve(rhs if shared else rhs[k])
        if batch:
            self._gauge("factor_nnz", int(factor.nnz))
            self._gauge("fill_ratio",
                        float(factor.nnz) / max(matrix.nnz, 1))
        return out


# ---------------------------------------------------------------------------
# vectorized Gummel-Poon group
# ---------------------------------------------------------------------------


def _limited_exp_vec(arg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`repro.devices.gummel_poon.limited_exp`."""
    anchor = math.exp(EXP_LIMIT)
    over = arg > EXP_LIMIT
    base = np.exp(np.minimum(arg, EXP_LIMIT))
    value = np.where(over, anchor * (1.0 + (arg - EXP_LIMIT)), base)
    deriv = np.where(over, anchor, base)
    return value, deriv


def _diode_current_vec(
    i_sat: np.ndarray, v: np.ndarray, n_vt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ideal-diode current; ``i_sat == 0`` lanes yield (0, 0)."""
    exp_value, exp_deriv = _limited_exp_vec(v / n_vt)
    return i_sat * (exp_value - 1.0), i_sat * exp_deriv / n_vt


def _pnjlim_vec(
    v_new: np.ndarray, v_old: np.ndarray, vt: np.ndarray, v_crit: np.ndarray
) -> np.ndarray:
    """Vectorized SPICE pnjlim junction-voltage limiting."""
    limit = (v_new > v_crit) & (np.abs(v_new - v_old) > 2.0 * vt)
    arg = 1.0 + (v_new - v_old) / vt
    arg_pos = arg > 0.0
    branch_pos = np.where(
        arg_pos, v_old + vt * np.log(np.where(arg_pos, arg, 1.0)), v_crit
    )
    ratio = v_new / vt
    ratio_pos = ratio > 0.0
    branch_neg = vt * np.log(np.where(ratio_pos, ratio, 1.0))
    limited = np.where(v_old > 0.0, branch_pos, branch_neg)
    return np.where(limit, limited, v_new)


class _DepletionJunction:
    """Precomputed constants for a batch of depletion junctions.

    All four BJT junction families (B-E, internal B-C, external B-C,
    substrate) are stacked into one array so a single vectorized
    :meth:`charge_cap` covers the whole group — per-op numpy overhead on
    short arrays is what dominates small-circuit evaluation, so fewer,
    longer operations win.
    """

    def __init__(self, cj, vj, m, fc):
        cj = np.asarray(cj, dtype=float)
        vj = np.asarray(vj, dtype=float)
        m = np.asarray(m, dtype=float)
        fc = np.asarray(fc, dtype=float)
        self.cj = cj
        self.threshold = fc * vj
        self.one_m = 1.0 - m
        f1 = vj / self.one_m * (1.0 - (1.0 - fc) ** self.one_m)
        f2 = (1.0 - fc) ** (1.0 + m)
        self.f3 = 1.0 - fc * (1.0 + m)
        self.inv_vj = 1.0 / vj
        self.coef_b = cj * vj / self.one_m
        self.cj_f1 = cj * f1
        self.cj_over_f2 = cj / f2
        self.m_over_2vj = m / (2.0 * vj)
        self.m_over_vj = m / vj
        self.thr2 = self.threshold * self.threshold

    def charge_cap(
        self, v: np.ndarray, lanes: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized SPICE depletion Q(v), C(v); ``cj == 0`` lanes are 0.

        ``lanes`` restricts the evaluation to a subset of the stacked
        junction batch (device-bypass partial evaluation); ``v`` must
        then already be gathered to those lanes.
        """
        if lanes is None:
            threshold, one_m, cj = self.threshold, self.one_m, self.cj
            inv_vj, coef_b = self.inv_vj, self.coef_b
            cj_f1, cj_over_f2, f3 = self.cj_f1, self.cj_over_f2, self.f3
            m_over_2vj, m_over_vj = self.m_over_2vj, self.m_over_vj
            thr2 = self.thr2
        else:
            threshold, one_m, cj = (
                self.threshold[lanes], self.one_m[lanes], self.cj[lanes]
            )
            inv_vj, coef_b = self.inv_vj[lanes], self.coef_b[lanes]
            cj_f1, cj_over_f2, f3 = (
                self.cj_f1[lanes], self.cj_over_f2[lanes], self.f3[lanes]
            )
            m_over_2vj, m_over_vj = (
                self.m_over_2vj[lanes], self.m_over_vj[lanes]
            )
            thr2 = self.thr2[lanes]
        below = v < threshold
        arg = np.where(below, 1.0 - v * inv_vj, 1.0)
        pow_one_m = arg ** one_m
        charge_b = coef_b * (1.0 - pow_one_m)
        cap_b = cj * pow_one_m / arg  # arg^(1-m)/arg == arg^-m
        dv = v - threshold
        charge_a = cj_f1 + cj_over_f2 * (
            f3 * dv + m_over_2vj * (v * v - thr2)
        )
        cap_a = cj_over_f2 * (f3 + m_over_vj * v)
        return (
            np.where(below, charge_b, charge_a),
            np.where(below, cap_b, cap_a),
        )


class BJTGroup:
    """All plain :class:`~repro.spice.elements.bjt.BJT` instances of a
    circuit, evaluated as one vectorized numpy pass.

    Compile time gathers per-device parameter arrays and builds the
    scatter-index arrays; :meth:`load` then reproduces the scalar
    ``BJT.load_dynamic`` stamps for every device at once.  Ground (-1)
    terminal indices are mapped to a dummy slot ``size`` — the engine's
    buffers carry one extra row/column that is never read.
    """

    def __init__(self, devices, size, i_full, q_full, xg):
        self.devices = list(devices)
        self.names = [d.name for d in self.devices]
        n = len(self.devices)
        self.n = n
        self._i_full = i_full
        self._q_full = q_full
        # Jacobian scatter targets are attached afterwards by
        # bind_dense/bind_sparse — the sparsity pattern needs this
        # group's index arrays before the data buffers can exist.
        self._g_flat = None
        self._c_flat = None
        self._g_idx = None
        self._c_idx = None
        self._xg = xg
        self.size = size

        def gather(values, dtype=float):
            return np.asarray(list(values), dtype=dtype)

        def nodes(index):
            a = gather((d.node_index[index] for d in self.devices), np.intp)
            a[a < 0] = size
            return a

        b_ext = nodes(1)
        s_ext = nodes(3)
        internal = [d._internal_indices() for d in self.devices]
        ci = gather((t[0] for t in internal), np.intp)
        bi = gather((t[1] for t in internal), np.intp)
        ei = gather((t[2] for t in internal), np.intp)
        ci[ci < 0] = size
        bi[bi < 0] = size
        ei[ei < 0] = size
        #: Terminal rows gathered once per evaluation by :meth:`_controls`.
        self._terminals = np.stack([b_ext, s_ext, ci, bi, ei])

        def param(attr):
            return gather(getattr(d.params, attr) for d in self.devices)

        self.sign = param("sign")
        vt = gather(d._vt for d in self.devices)
        self.nf_vt = param("NF") * vt
        self.nr_vt = param("NR") * vt
        self.ne_vt = param("NE") * vt
        self.nc_vt = param("NC") * vt
        self.vcrit_be = gather(d._vcrit_be for d in self.devices)
        self.vcrit_bc = gather(d._vcrit_bc for d in self.devices)
        self.IS = param("IS")
        self.ISE = param("ISE")
        self.ISC = param("ISC")
        self.BF = param("BF")
        self.BR = param("BR")
        self.VAF = param("VAF")
        self.VAR = param("VAR")
        self.IKF = param("IKF")
        self.IKR = param("IKR")
        self.TF = param("TF")
        self.XTF = param("XTF")
        self.ITF = param("ITF")
        self.TR = param("TR")
        self.RB = param("RB")
        self.rbm = gather(d.params.rbm_effective for d in self.devices)
        self.has_rb = gather((d._has_rb for d in self.devices), bool)
        vtf = param("VTF")
        #: 1/(1.44*VTF); infinite VTF collapses to 0 so exp(0)=1, d=0 — the
        #: same result as the scalar isfinite branch.
        with np.errstate(divide="ignore"):
            self.inv_vtf144 = np.where(
                np.isfinite(vtf), 1.0 / (1.44 * vtf), 0.0
            )
        self.itf_pos = self.ITF > 0.0

        cat = np.concatenate
        # The four junction diodes (BE ideal, BE leakage, BC ideal, BC
        # leakage) are evaluated as one stacked exp over 4n lanes.
        self._diode_isat = cat([self.IS, self.ISE, self.IS, self.ISC])
        self._diode_nvt = cat([self.nf_vt, self.ne_vt, self.nr_vt, self.nc_vt])
        # pnjlim for (vbe, vbc) runs as one stacked call over 2n lanes.
        self._lim_vt = cat([self.nf_vt, self.nr_vt])
        self._lim_vcrit = cat([self.vcrit_be, self.vcrit_bc])

        fc = param("FC")
        xcjc = param("XCJC")
        cjc = param("CJC")
        vjc, mjc = param("VJC"), param("MJC")
        # One stacked depletion batch: [B-E, internal B-C, external B-C,
        # substrate] — zero-CJ lanes (XCJC == 1, CJS == 0) contribute 0.
        self.junctions = _DepletionJunction(
            cat([param("CJE"), cjc * xcjc, cjc * (1.0 - xcjc), param("CJS")]),
            cat([param("VJE"), vjc, vjc, param("VJS")]),
            cat([param("MJE"), mjc, mjc, param("MJS")]),
            cat([fc, fc, fc, fc]),
        )

        # -- scatter index arrays (C-order ravel of the (slots, n) buffers) --
        cat = np.concatenate
        self._i_rows = cat([b_ext, bi, ci, bi, ei])
        self._q_rows = cat([bi, ei, bi, ci, b_ext, ci, s_ext, ci])

        g_pairs = [
            (b_ext, b_ext), (b_ext, bi), (bi, b_ext), (bi, bi),  # rb
            (ci, bi), (ci, ei), (ci, ci),  # dIc rows
            (bi, bi), (bi, ei), (bi, ci),  # dIb rows
            (ei, bi), (ei, ei), (ei, ci),  # dIe rows
        ]
        c_pairs = [
            (bi, bi), (bi, ei), (ei, bi), (ei, ei),  # cpi (dqbe_dvbe)
            (bi, bi), (bi, ci), (ei, bi), (ei, ci),  # dqbe_dvbc cross term
            (bi, bi), (bi, ci), (ci, bi), (ci, ci),  # cmu (dqbc_dvbc)
            (b_ext, b_ext), (b_ext, ci), (ci, b_ext), (ci, ci),  # cbx
            (s_ext, s_ext), (s_ext, ci), (ci, s_ext), (ci, ci),  # cjs
        ]
        # Row/column node indices of the Jacobian entries, kept unflattened
        # for the bypass extrapolation terms G_cached @ dx / C_cached @ dx
        # and for seeding the compiled sparsity pattern.
        self._g_rows_arr = cat([r for r, _ in g_pairs])
        self._g_cols_arr = cat([c for _, c in g_pairs])
        self._c_rows_arr = cat([r for r, _ in c_pairs])
        self._c_cols_arr = cat([c for _, c in c_pairs])
        #: Node voltages each Jacobian entry's column had at the owning
        #: device's last evaluation — the linearization point bypassed
        #: devices extrapolate from.  Freshly-evaluated lanes have their
        #: anchors synced to the current solution, so their extrapolation
        #: term is exactly zero.
        self._g_anchor = np.zeros(13 * n)
        self._c_anchor = np.zeros(20 * n)
        self._g_lane = np.arange(13)[:, None] * n
        self._c_lane = np.arange(20)[:, None] * n

        self._i_vals = np.empty((5, n))
        self._q_vals = np.empty((8, n))
        self._g_vals = np.empty((13, n))
        self._c_vals = np.empty((20, n))

        # -- device-bypass cache ------------------------------------------------
        # Last-evaluated control voltages per device (vbe, vbc, vbx, vsc
        # and the base-spreading drop); a device whose controls all moved
        # less than the bypass tolerance replays its cached stamp values
        # (the columns of the ``*_vals`` buffers above) untouched.
        self._bypass_v = np.full((5, n), np.inf)
        self._v_now = np.empty((5, n))
        self._v_diff = np.empty((5, n))
        self._bypass_gmin: float | None = None
        #: The limits dict the cache was built against — compared by
        #: identity, so a fresh per-call dict never falsely bypasses.
        self._bypass_limits: dict | None = None

    # -- scatter-target binding -------------------------------------------------

    def bind_dense(self, g_full: np.ndarray, c_full: np.ndarray) -> None:
        """Scatter Jacobian stamps into raveled dense ``(n1, n1)`` buffers."""
        n1 = self.size + 1
        self._g_flat = g_full.reshape(-1)
        self._c_flat = c_full.reshape(-1)
        self._g_idx = self._g_rows_arr * n1 + self._g_cols_arr
        self._c_idx = self._c_rows_arr * n1 + self._c_cols_arr

    def bind_sparse(self, pattern: SparsityPattern, g_data: np.ndarray,
                    c_data: np.ndarray) -> None:
        """Scatter Jacobian stamps directly into pattern data arrays.

        ``g_data``/``c_data`` are ``nnz + 1``-length value arrays over
        the same pattern (the trailing slot absorbs ground lanes), so
        one position lookup per slot family serves both targets — and
        the fused ``G + alpha*C`` path can scatter C values through
        ``_c_idx`` into ``g_data`` exactly as it does densely.
        """
        self._g_flat = g_data
        self._c_flat = c_data
        self._g_idx = pattern.positions(self._g_rows_arr, self._g_cols_arr)
        self._c_idx = pattern.positions(self._c_rows_arr, self._c_cols_arr)

    # -- evaluation -----------------------------------------------------------

    def _evaluate(self, vbe, vbc, gmin, qje, cje, qjc, cjc, idx=None):
        """Vectorized port of :func:`repro.devices.gummel_poon.evaluate`.

        The depletion contributions ``qje``/``cje`` (B-E) and ``qjc``/
        ``cjc`` (internal B-C) are computed by the caller as part of the
        stacked four-junction batch.  ``idx`` restricts the evaluation to
        a subset of devices (bypass partial evaluation); the voltage and
        depletion inputs must already be gathered to those lanes.
        """
        n = self.n if idx is None else len(idx)
        if idx is None:
            VAF, VAR, IKF, IKR = self.VAF, self.VAR, self.IKF, self.IKR
            BF, BR, ITF, itf_pos = self.BF, self.BR, self.ITF, self.itf_pos
            inv_vtf144, TF, XTF, TR = (
                self.inv_vtf144, self.TF, self.XTF, self.TR
            )
            rbm, RB = self.rbm, self.RB
            diode_isat, diode_nvt = self._diode_isat, self._diode_nvt
        else:
            VAF, VAR, IKF, IKR = (
                self.VAF[idx], self.VAR[idx], self.IKF[idx], self.IKR[idx]
            )
            BF, BR, ITF, itf_pos = (
                self.BF[idx], self.BR[idx], self.ITF[idx], self.itf_pos[idx]
            )
            inv_vtf144, TF, XTF, TR = (
                self.inv_vtf144[idx], self.TF[idx], self.XTF[idx],
                self.TR[idx],
            )
            rbm, RB = self.rbm[idx], self.RB[idx]
            idx4 = np.concatenate(
                [idx, idx + self.n, idx + 2 * self.n, idx + 3 * self.n]
            )
            diode_isat = self._diode_isat[idx4]
            diode_nvt = self._diode_nvt[idx4]
        # Last-axis slicing so a lane-stacked (L, m) call flows through
        # the identical elementwise arithmetic as the scalar (m,) call.
        v4 = np.concatenate([vbe, vbe, vbc, vbc], axis=-1)
        i4, g4 = _diode_current_vec(diode_isat, v4, diode_nvt)
        ibe1 = i4[..., :n] + gmin * vbe
        gbe1 = g4[..., :n] + gmin
        ibe2, gbe2 = i4[..., n : 2 * n], g4[..., n : 2 * n]
        ibc1 = i4[..., 2 * n : 3 * n] + gmin * vbc
        gbc1 = g4[..., 2 * n : 3 * n] + gmin
        ibc2, gbc2 = i4[..., 3 * n :], g4[..., 3 * n :]

        inv_early = 1.0 - vbc / VAF - vbe / VAR
        np.maximum(inv_early, 1e-4, out=inv_early)
        q1 = 1.0 / inv_early
        q2 = ibe1 / IKF + ibc1 / IKR
        sqarg = np.sqrt(1.0 + 4.0 * np.maximum(q2, -0.2499))
        qb = q1 * (1.0 + sqarg) / 2.0

        dq1_dvbe = q1 * q1 / VAR
        dq1_dvbc = q1 * q1 / VAF
        dq2_dvbe = gbe1 / IKF
        dq2_dvbc = gbc1 / IKR
        dqb_dvbe = dq1_dvbe * (1.0 + sqarg) / 2.0 + q1 * dq2_dvbe / sqarg
        dqb_dvbc = dq1_dvbc * (1.0 + sqarg) / 2.0 + q1 * dq2_dvbc / sqarg

        it = (ibe1 - ibc1) / qb
        dit_dvbe = (gbe1 - it * dqb_dvbe) / qb
        dit_dvbc = (-gbc1 - it * dqb_dvbc) / qb

        ic = it - ibc1 / BR - ibc2
        ib = ibe1 / BF + ibe2 + ibc1 / BR + ibc2
        dic_dvbe = dit_dvbe
        dic_dvbc = dit_dvbc - gbc1 / BR - gbc2
        dib_dvbe = gbe1 / BF + gbe2
        dib_dvbc = gbc1 / BR + gbc2

        # Bias-dependent forward transit time: TF == 0 or XTF == 0 lanes
        # reduce to tf_eff = TF, dtf = 0 without needing an explicit mask.
        ibe_pos = np.maximum(ibe1, 0.0)
        denom = ibe_pos + ITF
        denom_safe = np.where(denom > 0.0, denom, 1.0)
        w = np.where(itf_pos, ibe_pos / denom_safe, 1.0)
        dw_dvbe = np.where(
            itf_pos & (ibe1 > 0.0),
            gbe1 * ITF / (denom_safe * denom_safe),
            0.0,
        )
        exp_vbc = np.exp(np.minimum(vbc * inv_vtf144, EXP_LIMIT))
        dexp_dvbc = exp_vbc * inv_vtf144
        tf_eff = TF * (1.0 + XTF * w * w * exp_vbc)
        dtf_dvbe = TF * XTF * 2.0 * w * dw_dvbe * exp_vbc
        dtf_dvbc = TF * XTF * w * w * dexp_dvbc

        qde = tf_eff * ibe1 / qb
        dqde_dvbe = (dtf_dvbe * ibe1 + tf_eff * gbe1 - qde * dqb_dvbe) / qb
        dqde_dvbc = (dtf_dvbc * ibe1 - qde * dqb_dvbc) / qb

        qdc = TR * ibc1

        rbb = rbm + (RB - rbm) / qb

        return {
            "ic": ic,
            "ib": ib,
            "dic_dvbe": dic_dvbe,
            "dic_dvbc": dic_dvbc,
            "dib_dvbe": dib_dvbe,
            "dib_dvbc": dib_dvbc,
            "qbe": qde + qje,
            "qbc": qdc + qjc,
            "dqbe_dvbe": dqde_dvbe + cje,
            "dqbe_dvbc": dqde_dvbc,
            "dqbc_dvbc": TR * gbc1 + cjc,
            "rbb": rbb,
        }

    def _replay(
        self,
        xg: np.ndarray | None = None,
        jac_alpha: float | None = None,
        q_only: bool = False,
    ) -> None:
        """Scatter the cached stamp value buffers without re-evaluating.

        When ``xg`` is given (bypass mode) the current and charge stamps
        are extrapolated to the present solution with the cached
        Jacobians: ``i += G_cached @ (x - x_anchor)`` and
        ``q += C_cached @ (x - x_anchor)``.  Bypassed devices then act as
        their exact linearization at the anchor point, which keeps the
        Newton residual continuous in ``x`` (a frozen replay makes the
        branch-current unknowns absorb the ``gm * dv`` discrepancy and
        can lock Newton into an evaluate/replay limit cycle).  Lanes
        evaluated this call have their anchors synced to ``xg`` so their
        correction is exactly zero.

        With ``jac_alpha`` set (fused-Jacobian assembly) the capacitive
        stamps scatter into the conductance buffer scaled by alpha
        instead of into the (unmaintained) C buffer.  ``q_only=True``
        (charges-only assembly) scatters just the charge stamps and
        their extrapolation.
        """
        if not q_only:
            np.add.at(
                self._i_full, self._i_rows, self._i_vals.reshape(-1)
            )
            np.add.at(self._g_flat, self._g_idx, self._g_vals.reshape(-1))
            if jac_alpha is not None:
                np.add.at(
                    self._g_flat, self._c_idx,
                    self._c_vals.reshape(-1) * jac_alpha,
                )
            else:
                np.add.at(
                    self._c_flat, self._c_idx, self._c_vals.reshape(-1)
                )
        np.add.at(self._q_full, self._q_rows, self._q_vals.reshape(-1))
        if xg is not None:
            if not q_only:
                np.add.at(
                    self._i_full, self._g_rows_arr,
                    self._g_vals.reshape(-1)
                    * (xg[self._g_cols_arr] - self._g_anchor),
                )
            np.add.at(
                self._q_full, self._c_rows_arr,
                self._c_vals.reshape(-1)
                * (xg[self._c_cols_arr] - self._c_anchor),
            )

    def _controls(self, xg: np.ndarray) -> tuple:
        """Control voltages ``(vbe, vbc, vbx, vsc, vrb)`` of every device,
        read on the last axis of ``xg`` (one solution or a lane stack)."""
        sign = self.sign
        v = xg.take(self._terminals, -1)
        v_b, v_s, v_ci = v[..., 0, :], v[..., 1, :], v[..., 2, :]
        v_bi, v_ei = v[..., 3, :], v[..., 4, :]
        return (
            sign * (v_bi - v_ei),
            sign * (v_bi - v_ci),
            sign * (v_b - v_ci),
            sign * (v_s - v_ci),
            v_b - v_bi,
        )

    def _stamp_values(self, controls, gmin, limits_list, out, idx=None):
        """The device kernel shared by :meth:`load` and :meth:`load_stacked`.

        ``controls`` are the raw control voltages from :meth:`_controls`
        (gathered to ``idx`` when a bypass evaluates a device subset),
        either ``(m,)`` for one solution or ``(L, m)`` for a lane stack;
        ``limits_list`` holds one limits dict per lane.  The kernel runs
        pnjlim against each lane's limiting history, the stacked
        four-junction depletion batch and :meth:`_evaluate`, linearizes
        about the limited voltages (companion form) and fills the caller's
        ``out = (i, g, q, c)`` value buffers, shaped ``(..., 5, m)``,
        ``(..., 13, m)``, ``(..., 8, m)`` and ``(..., 20, m)``.  All math
        is elementwise on the last axis, so a stacked lane gets exactly
        the arithmetic of a scalar call at that lane's solution.
        """
        vbe_raw, vbc_raw, vbx, vsc, vrb = controls
        n = self.n
        if idx is None:
            m = n
            sign, has_rb, names = self.sign, self.has_rb, self.names
            lim_vt, lim_vcrit = self._lim_vt, self._lim_vcrit
            lanes = None
        else:
            m = len(idx)
            sign, has_rb = self.sign[idx], self.has_rb[idx]
            names = [self.names[k] for k in idx]
            idx2 = np.concatenate([idx, idx + n])
            lim_vt, lim_vcrit = self._lim_vt[idx2], self._lim_vcrit[idx2]
            lanes = np.concatenate(
                [idx, idx + n, idx + 2 * n, idx + 3 * n]
            )

        v_raw = np.concatenate([vbe_raw, vbc_raw], axis=-1)
        v_old = v_raw.copy()
        for row, limits in zip(v_old.reshape(-1, 2 * m), limits_list):
            for k, name in enumerate(names):
                old = limits.get(name)
                if old is not None:
                    row[k], row[m + k] = old
        v_lim = _pnjlim_vec(v_raw, v_old, lim_vt, lim_vcrit)
        vbe = v_lim[..., :m]
        vbc = v_lim[..., m:]
        for limits, be, bc in zip(
            limits_list, vbe.reshape(-1, m).tolist(),
            vbc.reshape(-1, m).tolist(),
        ):
            for name, lim_be, lim_bc in zip(names, be, bc):
                limits[name] = (lim_be, lim_bc)

        # Stacked depletion batch: B-E and internal B-C at the limited
        # voltages, external B-C and substrate at the raw ones.
        qdep, cdep = self.junctions.charge_cap(
            np.concatenate([vbe, vbc, vbx, vsc], axis=-1), lanes=lanes
        )
        qbx, cbx = qdep[..., 2 * m : 3 * m], cdep[..., 2 * m : 3 * m]
        qjs, cjs = qdep[..., 3 * m :], cdep[..., 3 * m :]

        op = self._evaluate(
            vbe, vbc, gmin, qdep[..., :m], cdep[..., :m],
            qdep[..., m : 2 * m], cdep[..., m : 2 * m], idx=idx,
        )
        dbe = vbe_raw - vbe
        dbc = vbc_raw - vbc

        grb = np.where(
            has_rb, 1.0 / np.maximum(op["rbb"], 1e-3), 0.0
        )
        irb = grb * vrb

        iv, gv, qv, cv = out
        ic = op["ic"] + op["dic_dvbe"] * dbe + op["dic_dvbc"] * dbc
        ib = op["ib"] + op["dib_dvbe"] * dbe + op["dib_dvbc"] * dbc
        iv[..., 0, :] = irb
        iv[..., 1, :] = -irb
        iv[..., 2, :] = sign * ic
        iv[..., 3, :] = sign * ib
        iv[..., 4, :] = -sign * (ic + ib)

        dic_e, dic_c = op["dic_dvbe"], op["dic_dvbc"]
        dib_e, dib_c = op["dib_dvbe"], op["dib_dvbc"]
        gv[..., 0, :] = grb
        gv[..., 1, :] = -grb
        gv[..., 2, :] = -grb
        gv[..., 3, :] = grb
        gv[..., 4, :] = dic_e + dic_c
        gv[..., 5, :] = -dic_e
        gv[..., 6, :] = -dic_c
        gv[..., 7, :] = dib_e + dib_c
        gv[..., 8, :] = -dib_e
        gv[..., 9, :] = -dib_c
        gv[..., 10, :] = -(dic_e + dib_e) - (dic_c + dib_c)
        gv[..., 11, :] = dic_e + dib_e
        gv[..., 12, :] = dic_c + dib_c

        # Charges: B'-E', B'-C' in companion form (their voltages are
        # limited); B-C' and S-C' at the raw external voltages.
        qbe = op["qbe"] + op["dqbe_dvbe"] * dbe + op["dqbe_dvbc"] * dbc
        qbc = op["qbc"] + op["dqbc_dvbc"] * dbc
        qv[..., 0, :] = sign * qbe
        qv[..., 1, :] = -sign * qbe
        qv[..., 2, :] = sign * qbc
        qv[..., 3, :] = -sign * qbc
        qv[..., 4, :] = sign * qbx
        qv[..., 5, :] = -sign * qbx
        qv[..., 6, :] = sign * qjs
        qv[..., 7, :] = -sign * qjs

        cpi = op["dqbe_dvbe"]
        cx = op["dqbe_dvbc"]
        cmu = op["dqbc_dvbc"]
        cv[..., 0, :] = cpi
        cv[..., 1, :] = -cpi
        cv[..., 2, :] = -cpi
        cv[..., 3, :] = cpi
        cv[..., 4, :] = cx
        cv[..., 5, :] = -cx
        cv[..., 6, :] = -cx
        cv[..., 7, :] = cx
        cv[..., 8, :] = cmu
        cv[..., 9, :] = -cmu
        cv[..., 10, :] = -cmu
        cv[..., 11, :] = cmu
        cv[..., 12, :] = cbx
        cv[..., 13, :] = -cbx
        cv[..., 14, :] = -cbx
        cv[..., 15, :] = cbx
        cv[..., 16, :] = cjs
        cv[..., 17, :] = -cjs
        cv[..., 18, :] = -cjs
        cv[..., 19, :] = cjs

    def load(
        self,
        ctx: LoadContext,
        bypass_tol: float = 0.0,
        q_only: bool = False,
    ) -> int:
        """Stamp every device of the group; mirrors ``BJT.load_dynamic``.

        With ``bypass_tol > 0`` each device compares its control voltages
        (vbe, vbc, vbx, vsc and the base-spreading drop) against the last
        point it was actually evaluated at; devices that all moved less
        than the tolerance replay their cached stamp columns untouched.
        Returns the number of bypassed devices.
        """
        size = self.size
        xg = self._xg
        xg[:size] = ctx.x
        xg[size] = 0.0
        jac_alpha = ctx.jac_alpha
        controls = self._controls(xg)
        n = self.n

        idx = None
        if bypass_tol > 0.0:
            v_now = self._v_now
            for k, values in enumerate(controls):
                v_now[k] = values
            # A fresh limits dict (new analysis, retry with different
            # limiting history) or a different gmin invalidates the
            # cached stamps; identity comparison is safe because the
            # cache holds a strong reference to the dict it saw.
            if (self._bypass_limits is ctx.limits
                    and self._bypass_gmin == ctx.gmin):
                diff = self._v_diff
                np.subtract(v_now, self._bypass_v, out=diff)
                np.abs(diff, out=diff)
                moved = (diff > bypass_tol).any(axis=0)
                if not moved.any():
                    # Keep the cached anchor voltages: bypassed devices
                    # always compare against their last *evaluated*
                    # point so sub-tolerance drift cannot accumulate.
                    self._replay(xg, jac_alpha, q_only=q_only)
                    return n
                # The partial path gathers every parameter array per
                # lane; for a vectorized group that only pays off when
                # few lanes moved (the whole-vector math is nearly flat
                # in n).  Mostly-moved calls just evaluate everything.
                count_moved = int(np.count_nonzero(moved))
                if count_moved <= max(1, n // 4):
                    idx = np.flatnonzero(moved)
                    self._bypass_v[:, idx] = v_now[:, idx]
                else:
                    self._bypass_v[...] = v_now
            else:
                self._bypass_v[...] = v_now
            self._bypass_gmin = ctx.gmin
            self._bypass_limits = ctx.limits
        elif self._bypass_limits is not None:
            # A tolerance-zero evaluation rewrites the shared value
            # buffers without tracking anchors — drop the cache so a
            # later bypassed call cannot replay mismatched stamps.
            self._bypass_limits = None
            self._bypass_gmin = None
            self._bypass_v.fill(np.inf)

        vals = (self._i_vals, self._g_vals, self._q_vals, self._c_vals)
        if idx is None:
            m = n
            self._stamp_values(controls, ctx.gmin, [ctx.limits], vals)
        else:
            m = len(idx)
            part = tuple(np.empty((v.shape[0], m)) for v in vals)
            self._stamp_values(
                [v[idx] for v in controls], ctx.gmin, [ctx.limits], part,
                idx=idx,
            )
            for full, values in zip(vals, part):
                full[:, idx] = values
        if bypass_tol > 0.0:
            if idx is None:
                self._g_anchor[...] = xg[self._g_cols_arr]
                self._c_anchor[...] = xg[self._c_cols_arr]
            else:
                pos_g = (self._g_lane + idx).reshape(-1)
                pos_c = (self._c_lane + idx).reshape(-1)
                self._g_anchor[pos_g] = xg[self._g_cols_arr[pos_g]]
                self._c_anchor[pos_c] = xg[self._c_cols_arr[pos_c]]
            self._replay(xg, jac_alpha)
        else:
            self._replay(None, jac_alpha)
        return n - m

    def load_stacked(
        self,
        x_stack: np.ndarray,
        gmin: float,
        limits_list: list,
        i_full: np.ndarray,
        q_full: np.ndarray,
        g_flat: np.ndarray,
        c_flat: np.ndarray | None = None,
    ) -> None:
        """Stamp every device for a ``(L, n)`` stack of solutions at once.

        The lane-stacked form of :meth:`load` at ``bypass_tol == 0``:
        both run :meth:`_stamp_values`, so each lane's stamps are
        bit-identical to a scalar :meth:`load` at that lane's ``x``.
        Scatter targets are per-lane flats (``i_full``/``q_full`` are
        ``(L, size+1)``, ``g_flat``/``c_flat`` are ``(L, flat)``); the
        ``np.add.at`` broadcast iterates lane-major, preserving each
        lane's scalar accumulation order over duplicate slots.  The
        shared ``*_vals`` buffers and the device-bypass cache are never
        touched, so interleaved scalar bypassing stays coherent.
        """
        L = x_stack.shape[0]
        n = self.n
        xg = np.zeros((L, self.size + 1))
        xg[:, : self.size] = x_stack
        iv = np.empty((L, 5, n))
        gv = np.empty((L, 13, n))
        qv = np.empty((L, 8, n))
        cv = np.empty((L, 20, n))
        self._stamp_values(
            self._controls(xg), gmin, limits_list, (iv, gv, qv, cv)
        )

        lane = np.arange(L)[:, None]
        np.add.at(i_full, (lane, self._i_rows[None, :]), iv.reshape(L, -1))
        np.add.at(g_flat, (lane, self._g_idx[None, :]), gv.reshape(L, -1))
        if c_flat is not None:
            np.add.at(
                c_flat, (lane, self._c_idx[None, :]), cv.reshape(L, -1)
            )
        np.add.at(q_full, (lane, self._q_rows[None, :]), qv.reshape(L, -1))


class _RecordingContext:
    """Proxy over a :class:`LoadContext` that records one element's
    voltage reads and stamps so they can be replayed on bypass.

    Everything not intercepted (``limits``, ``gmin``, ``x_prev``, ...)
    delegates to the wrapped context, so the element behaves exactly as
    if it had been handed the real accumulator.
    """

    def __init__(self, ctx: LoadContext):
        self._ctx = ctx
        self.watch: list[int] = []
        self.stamps_i: list[tuple[int, float]] = []
        self.stamps_q: list[tuple[int, float]] = []
        self.stamps_g: list[tuple[int, int, float]] = []
        self.stamps_c: list[tuple[int, int, float]] = []

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def voltage(self, index: int) -> float:
        if index < 0:
            return 0.0
        self.watch.append(index)
        return self._ctx.x[index]

    def add_i(self, row: int, value: float) -> None:
        if row >= 0:
            self.stamps_i.append((row, value))
            self._ctx.i_vec[row] += value

    def add_q(self, row: int, value: float) -> None:
        if row >= 0:
            self.stamps_q.append((row, value))
            self._ctx.q_vec[row] += value

    def add_g(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self.stamps_g.append((row, col, value))
            self._ctx.g_mat[row, col] += value

    def add_c(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self.stamps_c.append((row, col, value))
            self._ctx.add_c(row, col, value)

    # The stamp helpers re-route through the recording accessors above.
    stamp_conductance = LoadContext.stamp_conductance
    stamp_capacitance = LoadContext.stamp_capacitance
    stamp_current_source = LoadContext.stamp_current_source


class _ScalarBypass:
    """Record/replay device bypass for one scalar nonlinear element.

    Only used for element classes whose ``load_dynamic`` is a pure
    function of the voltages it reads, ``gmin`` and its ``limits``
    entry (diodes and BJT subclasses outside the vectorized group).
    """

    def __init__(self, element):
        self.element = element
        self.watch: list[int] = []
        self.values: list[float] = []
        self.stamps = None
        self.anchor: dict[int, float] = {}
        self.gmin: float | None = None
        self.limits: dict | None = None

    def invalidate(self) -> None:
        self.stamps = None
        self.limits = None

    def load(self, ctx: LoadContext, bypass_tol: float) -> int:
        """Stamp the element, replaying the cache when every watched
        voltage moved less than ``bypass_tol``; returns 1 on bypass."""
        if (
            bypass_tol > 0.0
            and self.stamps is not None
            and self.limits is ctx.limits
            and self.gmin == ctx.gmin
        ):
            x = ctx.x
            for j, vj in zip(self.watch, self.values):
                if abs(x[j] - vj) > bypass_tol:
                    break
            else:
                si, sq, sg, sc = self.stamps
                i_vec, q_vec = ctx.i_vec, ctx.q_vec
                g_mat, c_mat = ctx.g_mat, ctx.c_mat
                jac_alpha = ctx.jac_alpha
                anchor = self.anchor
                for row, val in si:
                    i_vec[row] += val
                for row, val in sq:
                    q_vec[row] += val
                # Extrapolate I and Q to the present solution with the
                # cached Jacobian entries so the bypassed element acts as
                # its linearization at the anchor (see BJTGroup._replay).
                for row, col, val in sg:
                    g_mat[row, col] += val
                    i_vec[row] += val * (x[col] - anchor[col])
                for row, col, val in sc:
                    if jac_alpha is not None:
                        g_mat[row, col] += val * jac_alpha
                    else:
                        c_mat[row, col] += val
                    q_vec[row] += val * (x[col] - anchor[col])
                return 1
        if bypass_tol > 0.0:
            rec = _RecordingContext(ctx)
            self.element.load_dynamic(rec)
            x = ctx.x
            self.watch = rec.watch
            self.values = [x[j] for j in rec.watch]
            self.stamps = (
                rec.stamps_i, rec.stamps_q, rec.stamps_g, rec.stamps_c
            )
            self.anchor = {
                col: x[col]
                for _, col, _ in rec.stamps_g + rec.stamps_c
            }
            self.gmin = ctx.gmin
            self.limits = ctx.limits
        else:
            self.invalidate()
            self.element.load_dynamic(ctx)
        return 0


class _CooContext(LoadContext):
    """Probe context recording linear Jacobian stamps as COO triples.

    The compile-time ``load_static`` probe runs through this instead of
    a dense :class:`LoadContext`: residual vectors accumulate normally,
    but G/C stamps are kept as ``(row, col, value)`` triples.  The same
    triples then seed the sparsity pattern *and* densify into ``G0``/
    ``C0`` for the dense path — ``np.add.at`` applies duplicates in
    recorded order, so the densified matrices are bit-identical to the
    sequential ``+=`` probe they replace.
    """

    def __init__(self, size: int):
        super().__init__(size, np.zeros(size), None, 0.0, source_scale=0.0)
        self.g_mat = None
        self.c_mat = None
        self.g_rows: list[int] = []
        self.g_cols: list[int] = []
        self.g_vals: list[float] = []
        self.c_rows: list[int] = []
        self.c_cols: list[int] = []
        self.c_vals: list[float] = []

    def add_g(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self.g_rows.append(row)
            self.g_cols.append(col)
            self.g_vals.append(value)

    def add_c(self, row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            self.c_rows.append(row)
            self.c_cols.append(col)
            self.c_vals.append(value)

    @staticmethod
    def densify(size, rows, cols, vals) -> np.ndarray:
        out = np.zeros((size, size))
        if rows:
            np.add.at(
                out,
                (np.asarray(rows, dtype=np.intp),
                 np.asarray(cols, dtype=np.intp)),
                np.asarray(vals),
            )
        return out

    @staticmethod
    def scatter(pattern: SparsityPattern, rows, cols, vals) -> np.ndarray:
        """Accumulate the triples into an ``nnz + 1`` data array."""
        out = np.zeros(pattern.nnz + 1)
        if rows:
            pos = pattern.positions(
                np.asarray(rows, dtype=np.intp),
                np.asarray(cols, dtype=np.intp),
            )
            np.add.at(out, pos, np.asarray(vals))
        return out


# ---------------------------------------------------------------------------
# engines
# ---------------------------------------------------------------------------


class StackedContext:
    """Lane-stacked assembly returned by
    :meth:`CompiledCircuit.evaluate_stacked`.

    ``i``/``q`` are ``(L, size)`` stacks; ``g``/``c`` are ``(L, size,
    size)`` dense stacks or ``(L, nnz)`` pattern-value stacks depending
    on the engine's assembly backend (``c`` is ``None`` unless requested).
    Row ``k`` holds exactly what a scalar ``evaluate`` at lane ``k``'s
    solution would have produced.
    """

    __slots__ = ("i", "g", "q", "c")

    def __init__(self, i, g, q, c=None):
        self.i = i
        self.g = g
        self.q = q
        self.c = c


class CompiledCircuit:
    """Compile-once, evaluate-many circuit engine.

    Construction partitions the elements, stamps the linear part into
    cached ``G0``/``C0`` matrices, precomputes source RHS rows and builds
    the vectorized BJT group.  :meth:`evaluate` then assembles the full
    system into preallocated buffers and returns a
    :class:`~repro.spice.mna.LoadContext` over them — the same object
    :func:`~repro.spice.mna.load_circuit` returns, so the two are
    directly comparable stamp by stamp.

    The returned context's arrays are *views into engine-owned buffers*:
    they are overwritten by the next :meth:`evaluate` call.  Analyses
    copy what they need to keep.
    """

    def __init__(self, circuit: Circuit, mode: str | None = None):
        t0 = _time.perf_counter()
        self.circuit = circuit
        size = circuit.assign_indices()
        self.size = size
        self.num_nodes = len(circuit.node_map)
        self.generation = circuit._generation
        self.stats = EngineStats()
        #: Stat sinks every count of this engine and its solver lands in.
        self._sinks = (self.stats, GLOBAL_STATS)
        if mode not in (None, "auto", "dense", "sparse"):
            raise AnalysisError(
                f"unknown assembly mode {mode!r}; expected 'auto', "
                "'dense' or 'sparse'"
            )

        sources = []
        nonlinear = []
        for element in circuit:
            if element.has_time_varying_rhs():
                sources.append(element)
            if element.is_nonlinear():
                nonlinear.append(element)
        #: (element, [(row, coeff), ...]) pairs; rows are fixed by the
        #: topology, values are re-read from the waveform per evaluation.
        #: Sources with a constant (DC) waveform are folded into a single
        #: precomputed vector instead — their value never changes, so the
        #: per-evaluation python loop only visits true waveform sources.
        self._source_rows = []
        self._src_dc = np.zeros(size)
        self._has_src_dc = False
        for element in sources:
            rows = list(element.rhs_rows())
            if type(getattr(element, "waveform", None)) is DCWaveform:
                value = element.source_value(None)
                for row, coeff in rows:
                    self._src_dc[row] += coeff * value
                    self._has_src_dc = True
            else:
                self._source_rows.append((element, rows))
        bjts = [e for e in nonlinear if type(e) is BJT]
        self._scalar_dynamic = [e for e in nonlinear if type(e) is not BJT]
        #: Bypass wrappers, aligned with ``_scalar_dynamic``; ``None`` for
        #: element classes whose ``load_dynamic`` is not known to be a
        #: pure function of its voltage reads, gmin and limits entry.
        self._scalar_bypass = [
            _ScalarBypass(e) if isinstance(e, (Diode, BJT)) else None
            for e in self._scalar_dynamic
        ]
        self._eval_cost = len(sources) + len(nonlinear)
        self.has_constant_jacobian = not nonlinear

        # Constant linear stamps, captured by probing load_static with
        # x = 0 and source_scale = 0: every linear element then stamps
        # exactly its Jacobian and a zero residual.  The probe records
        # COO triples so the same pass seeds the symbolic sparsity
        # pattern and (in dense mode) densifies into G0/C0.
        probe = _CooContext(size)
        for element in circuit:
            element.load_static(probe)
        self._i0 = probe.i_vec
        self._q0 = probe.q_vec

        # Evaluation buffers carry a dummy slot (row/col ``size``) that
        # absorbs ground stamps from the vectorized group.
        n1 = size + 1
        self._i_full = np.zeros(n1)
        self._q_full = np.zeros(n1)
        self._xg = np.zeros(n1)

        self._bjt_group = (
            BJTGroup(bjts, size, self._i_full, self._q_full, self._xg)
            if bjts
            else None
        )

        # -- symbolic pattern: every stamp slot any evaluation can touch --
        slot_rows = [np.asarray(probe.g_rows + probe.c_rows, dtype=np.intp),
                     np.arange(size, dtype=np.intp)]  # gshunt diagonal
        slot_cols = [np.asarray(probe.g_cols + probe.c_cols, dtype=np.intp),
                     np.arange(size, dtype=np.intp)]
        if self._bjt_group is not None:
            group = self._bjt_group
            slot_rows += [group._g_rows_arr, group._c_rows_arr]
            slot_cols += [group._g_cols_arr, group._c_cols_arr]
        for element in self._scalar_dynamic:
            # Scalar nonlinear stamps depend on the operating point
            # (e.g. conditional cross terms), so the pattern takes the
            # full cross product of the element's unknowns — a superset
            # of anything load_dynamic can ever stamp.
            own = np.asarray(
                [k for k in (*element.node_index, *element.branch_index)
                 if k >= 0],
                dtype=np.intp,
            )
            slot_rows.append(np.repeat(own, own.size))
            slot_cols.append(np.tile(own, own.size))
        self.pattern = SparsityPattern(
            size, np.concatenate(slot_rows), np.concatenate(slot_cols)
        )

        # -- assembly-mode decision: the backend also picks the solver ----
        backend = mode or "auto"
        if backend == "auto":
            backend = DEFAULT_SOLVER_COST_MODEL.choose(size, self.pattern.nnz)
        self.assembly = backend
        self._assembly_counter = f"{backend}_assemblies"

        if backend == "sparse":
            pattern = self.pattern
            self._base_g = _CooContext.scatter(
                pattern, probe.g_rows, probe.g_cols, probe.g_vals
            )
            self._base_c = _CooContext.scatter(
                pattern, probe.c_rows, probe.c_cols, probe.c_vals
            )
            # CSR copies of the constant stamps for the residual/charge
            # matvecs G0 @ x and C0 @ x.
            self._g0_csr = pattern.csc(self._base_g).tocsr()
            self._c0_csr = pattern.csc(self._base_c).tocsr()
            self._g_data = np.zeros(pattern.nnz + 1)
            self._c_data = np.zeros(pattern.nnz + 1)
            self._g_pm = PatternMatrix(pattern, self._g_data)
            self._c_pm = PatternMatrix(pattern, self._c_data)
            self._g0 = self._c0 = None
            self._g_full = self._c_full = None
            if self._bjt_group is not None:
                self._bjt_group.bind_sparse(
                    pattern, self._g_data, self._c_data
                )
            _set(self._sinks, "pattern_nnz", pattern.nnz)
            self.solver = SparseLUSolver(
                permc_spec=getattr(self.circuit, "_permc_spec", None)
            )
        else:
            self._g0 = _CooContext.densify(
                size, probe.g_rows, probe.g_cols, probe.g_vals
            )
            self._c0 = _CooContext.densify(
                size, probe.c_rows, probe.c_cols, probe.c_vals
            )
            self._g_full = np.zeros((n1, n1))
            self._c_full = np.zeros((n1, n1))
            if self._bjt_group is not None:
                self._bjt_group.bind_dense(self._g_full, self._c_full)
            self.solver = DenseLUSolver()

        self.solver.bind(*self._sinks)
        _set(self._sinks, "solver", self.solver.name)
        _set(self._sinks, "assembly", backend)
        self.count(compilations=1,
                   wall_seconds=_time.perf_counter() - t0)

    def count(self, **deltas) -> None:
        """Add each ``name=n`` of ``deltas`` to this engine's stats and
        to :data:`GLOBAL_STATS`."""
        _bump(self._sinks, **deltas)

    # -- evaluation -----------------------------------------------------------

    def evaluate(
        self,
        x: np.ndarray,
        time: float | None = None,
        gmin: float = 1e-12,
        x_prev: np.ndarray | None = None,
        limits: dict | None = None,
        source_scale: float = 1.0,
        bypass_tol: float = 0.0,
        jac_alpha: float | None = None,
        charges_only: bool = False,
        residual_only: bool = False,
    ) -> LoadContext:
        """Assemble I, G, Q, C at candidate ``x``; returns a LoadContext
        whose arrays are views into the engine's reusable buffers.

        ``bypass_tol > 0`` enables device bypass: nonlinear devices whose
        terminal voltages all moved less than the tolerance since their
        last actual evaluation replay cached stamps instead of
        re-evaluating (counted in ``stats.bypassed_evals``).  At 0 the
        assembly is bit-identical to the non-bypassing path.

        ``jac_alpha`` (transient hot path) fuses the integration formula
        into assembly: ``g_mat`` is built directly as ``G + alpha*C``
        (one dense pass instead of two copies plus a dense
        multiply-add in the integrator callback) and ``c_mat`` is left
        untouched.  ``charges_only=True`` assembles just ``q_vec`` — the
        contract for the converged-point context handed back to the
        integrator, whose accept path reads nothing else; ``i_vec``,
        ``g_mat`` and ``c_mat`` are stale buffers in that mode.
        ``residual_only=True`` skips the dense Jacobian build (``g_mat``
        and ``c_mat`` are stale) while assembling ``i_vec``/``q_vec`` in
        full — the contract for chord-Newton iterations that will reuse
        a cached factorization.
        """
        size = self.size
        i = self._i_full[:size]
        q = self._q_full[:size]
        if self.assembly == "sparse":
            # Flat nnz-length assembly: no (n, n) buffer exists, let
            # alone gets written.
            g, c = self._g_pm, self._c_pm
            g_data, c_data = self._g_data, self._c_data
        else:
            g = g_data = self._g_full[:size, :size]
            c = c_data = self._c_full[:size, :size]
        self._linear_residual(x, i, q, charges_only)
        # residual_only: the caller will reuse a cached factorization, so
        # the stale g/c buffers are left alone.  Device stamps still land
        # in them, which is harmless — nothing reads the Jacobian on a
        # chord-reuse iteration.
        if not (charges_only or residual_only):
            self._base_jacobian(g_data, c_data, jac_alpha)
        self._add_offsets(i, q, time, source_scale, charges_only)

        ctx = LoadContext(
            size, x, time, gmin, source_scale, buffers=(i, g, q, c)
        )
        ctx.x_prev = x_prev
        if not charges_only:
            ctx.jac_alpha = jac_alpha
        if limits is not None:
            ctx.limits = limits

        bypassed = 0
        if self._bjt_group is not None:
            bypassed += self._bjt_group.load(
                ctx, bypass_tol, q_only=charges_only
            )
        if bypass_tol > 0.0:
            for element, wrapper in zip(
                self._scalar_dynamic, self._scalar_bypass
            ):
                if wrapper is None:
                    element.load_dynamic(ctx)
                else:
                    bypassed += wrapper.load(ctx, bypass_tol)
        else:
            for wrapper in self._scalar_bypass:
                if wrapper is not None:
                    wrapper.invalidate()
            for element in self._scalar_dynamic:
                element.load_dynamic(ctx)

        self._count_assemblies(1, self._eval_cost - bypassed, bypassed)
        return ctx

    def evaluate_stacked(
        self,
        x_stack: np.ndarray,
        gmin: float = 1e-12,
        limits_list: list | None = None,
        source_scale: float = 1.0,
        with_c: bool = False,
    ) -> "StackedContext":
        """Assemble I, G (and optionally C, Q) for a ``(L, n)`` solution
        stack in one vectorized pass.

        The lane-stacked form of :meth:`evaluate` at its DC defaults
        (``time=None``, ``bypass_tol=0``): every lane's arrays are
        bit-identical to a scalar :meth:`evaluate` at that lane's ``x``
        with that lane's ``limits`` dict.  Both share the constant-stamp
        and source code; the base-stamp matvecs run per lane (matching
        the scalar BLAS/CSR call exactly), the BJT group runs stacked
        through :meth:`BJTGroup.load_stacked`, and scalar-dynamic
        elements (diodes, BJT subclasses) are loaded lane by lane into
        row views of the stacked buffers, after the group as in
        :meth:`evaluate`.  Buffers are freshly allocated per call —
        unlike :meth:`evaluate`, the returned views survive subsequent
        calls.
        """
        size = self.size
        n1 = size + 1
        L = x_stack.shape[0]
        if limits_list is None:
            limits_list = [dict() for _ in range(L)]
        sparse = self.assembly == "sparse"
        i_full = np.zeros((L, n1))
        q_full = np.zeros((L, n1))
        i, q = i_full[:, :size], q_full[:, :size]
        shape = (L, self.pattern.nnz + 1) if sparse else (L, n1, n1)
        g_buf = np.zeros(shape)
        # Scalar-dynamic elements stamp C unconditionally, so they get a
        # C stack even when the caller does not want one back.
        c_buf = (np.zeros(shape) if with_c or self._scalar_dynamic
                 else None)
        if sparse:
            g, c = g_buf, c_buf
        else:
            g = g_buf[:, :size, :size]
            c = None if c_buf is None else c_buf[:, :size, :size]
        for k in range(L):
            self._linear_residual(x_stack[k], i[k], q[k])
        self._base_jacobian(g, c)
        self._add_offsets(i, q, None, source_scale)

        if self._bjt_group is not None:
            self._bjt_group.load_stacked(
                x_stack, gmin, limits_list, i_full, q_full,
                g_buf.reshape(L, -1),
                c_buf.reshape(L, -1) if with_c else None,
            )
        if self._scalar_dynamic:
            for k in range(L):
                if sparse:
                    g_k = PatternMatrix(self.pattern, g_buf[k])
                    c_k = PatternMatrix(self.pattern, c_buf[k])
                else:
                    g_k, c_k = g[k], c[k]
                ctx = LoadContext(size, x_stack[k], None, gmin,
                                  source_scale, buffers=(i[k], g_k, q[k], c_k))
                ctx.limits = limits_list[k]
                for element in self._scalar_dynamic:
                    element.load_dynamic(ctx)

        self._count_assemblies(L, self._eval_cost * L)
        if sparse:
            nnz = self.pattern.nnz
            g = g_buf[:, :nnz]
            c = c_buf[:, :nnz] if with_c else None
        elif not with_c:
            c = None
        return StackedContext(i, g, q, c)

    def _linear_residual(self, x, i, q, charges_only: bool = False) -> None:
        """``q = C0 @ x`` and ``i = G0 @ x`` for one solution: a BLAS
        matvec (dense) or a CSR matvec over the constant stamps
        (sparse, O(nnz)).  :meth:`evaluate_stacked` calls it once per
        lane, so every lane gets the scalar call's exact arithmetic."""
        if self.assembly == "sparse":
            q[:] = self._c0_csr.dot(x)
            if not charges_only:
                i[:] = self._g0_csr.dot(x)
        else:
            np.dot(self._c0, x, out=q)
            if not charges_only:
                np.dot(self._g0, x, out=i)

    def _base_jacobian(self, g, c, jac_alpha: float | None = None) -> None:
        """Reset ``g`` and ``c`` to the constant stamps (dense matrices or
        pattern data, optionally lane-stacked); with ``jac_alpha`` set
        ``g`` gets the fused ``G0 + alpha*C0`` and ``c`` is left alone."""
        if self.assembly == "sparse":
            g0, c0 = self._base_g, self._base_c
        else:
            g0, c0 = self._g0, self._c0
        if jac_alpha is not None:
            np.multiply(c0, jac_alpha, out=g)
            g += g0
        else:
            np.copyto(g, g0)
            if c is not None:
                np.copyto(c, c0)

    def _add_offsets(self, i, q, time, source_scale: float,
                     charges_only: bool = False) -> None:
        """Add the constant residual/charge offsets and the independent
        source rows to ``i``/``q`` (one solution or a lane stack)."""
        q += self._q0
        if charges_only:
            return
        i += self._i0
        if source_scale != 0.0:
            if self._has_src_dc:
                if source_scale == 1.0:
                    i += self._src_dc
                else:
                    i += self._src_dc * source_scale
            for element, rows in self._source_rows:
                value = element.source_value(time) * source_scale
                if value != 0.0:
                    for row, coeff in rows:
                        i[..., row] += coeff * value

    def _count_assemblies(self, lanes: int, evals: int,
                          bypassed: int = 0) -> None:
        _bump(self._sinks, assemblies=lanes, element_evals=evals,
              bypassed_evals=bypassed,
              **{self._assembly_counter: lanes})

    def solve(self, a: np.ndarray, b: np.ndarray, token=None,
              chord: bool = False) -> np.ndarray:
        """Solve ``a @ x = b`` through the pluggable backend.

        ``token``-based factorization reuse is only honoured for circuits
        with a constant Jacobian — for nonlinear circuits every Newton
        matrix differs and reuse would silently turn Newton into a chord
        method with a stale Jacobian.  ``chord=True`` opts in to exactly
        that: the caller (``newton_solve``) deliberately freezes the
        Jacobian under ``token`` and watches residual contraction itself.
        """
        if token is not None and not chord and not self.has_constant_jacobian:
            token = None
        return self.solver.solve(a, b, token=token)

    def has_factorization(self, token) -> bool:
        return self.solver.has_factorization(token)

    def solve_cached(self, b: np.ndarray) -> np.ndarray:
        return self.solver.solve_cached(b)

    def solve_batched(self, systems: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
        """Solve a stack of systems through the pluggable backend.

        Used by the blocked AC/noise frequency sweeps: every system in
        the stack is distinct (``G + j*omega_k*C``), so there is no
        factorization reuse — the win is one vectorized LAPACK dispatch
        instead of a per-frequency Python loop.
        """
        return self.solver.solve_batched(systems, rhs)

    def solve_batched_exact(self, systems: np.ndarray,
                            rhs: np.ndarray) -> np.ndarray:
        """Per-lane solves bit-identical to this engine's scalar
        :meth:`solve` — the blocked DC Newton path (see
        :func:`repro.spice.dcop.newton_solve_batched`).  Singular lanes
        return NaN instead of raising."""
        return self.solver.solve_batched_exact(systems, rhs)

    def solve_pattern_batched(self, data: np.ndarray, rhs: np.ndarray,
                              transpose: bool = False) -> np.ndarray:
        """Solve a ``(batch, nnz)`` stack over the compiled pattern.

        The sparse-assembly analogue of :meth:`solve_batched`: blocked
        AC/noise build per-frequency value vectors over the fixed
        pattern instead of dense ``(batch, n, n)`` stacks.  Only
        meaningful on a sparse-assembly engine.
        """
        if self.assembly != "sparse":
            raise AnalysisError(
                "solve_pattern_batched requires a sparse-assembly engine"
            )
        return self.solver.solve_pattern_batched(
            self.pattern, data, rhs, transpose=transpose
        )

    def timed(self) -> _timed_stats:
        """Context manager charging elapsed wall time to this engine."""
        return _timed_stats(self.stats, GLOBAL_STATS)

    def invalidate_factorization(self) -> None:
        self.solver.invalidate()


# ---------------------------------------------------------------------------
# engine resolution / caching
# ---------------------------------------------------------------------------


def compile_circuit(circuit: Circuit, mode: str | None = None
                    ) -> CompiledCircuit:
    """Compile ``circuit`` into a fresh :class:`CompiledCircuit`."""
    return CompiledCircuit(circuit, mode=mode)


def get_engine(circuit: Circuit, mode: str | None = None) -> CompiledCircuit:
    """The circuit's cached compiled engine, rebuilt when stale.

    Staleness is tracked by ``Circuit._generation`` (bumped on element
    add/remove and by :meth:`Circuit.invalidate`).  ``mode`` pins the
    assembly backend (``"dense"``/``"sparse"``; default ``"auto"``);
    engines are cached per mode so e.g. a dense-vs-sparse equivalence
    test doesn't thrash one cache slot.
    """
    circuit.assign_indices()
    key = mode or "auto"
    engines = getattr(circuit, "_compiled_engines", None)
    if engines is None:
        engines = circuit._compiled_engines = {}
    cached = engines.get(key)
    if cached is not None and cached.generation == circuit._generation:
        return cached
    engine = CompiledCircuit(circuit, mode=mode)
    engines[key] = engine
    return engine


def resolve_engine(circuit: Circuit, engine=None):
    """Resolve an analysis ``engine=`` argument.

    ``None`` and ``"auto"`` use the circuit's cached compiled engine with
    the cost model's assembly choice; ``"dense"`` and ``"sparse"`` pin
    the assembly backend; an engine object is validated against the
    circuit's current generation.
    """
    if engine is None:
        return get_engine(circuit)
    if engine in ("auto", "dense", "sparse"):
        return get_engine(circuit, mode=engine)
    if isinstance(engine, str):
        raise AnalysisError(
            f"unknown engine {engine!r}; expected 'auto', 'dense' or "
            "'sparse'"
        )
    if engine.circuit is not circuit:
        raise AnalysisError("engine was compiled for a different circuit")
    if engine.generation != circuit._generation:
        raise AnalysisError(
            "engine is stale: the circuit changed after compilation "
            "(recompile with compile_circuit, or pass engine=None)"
        )
    return engine
