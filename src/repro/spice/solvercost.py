"""Cost model choosing dense vs sparse LU at compile time.

Mirrors :mod:`repro.sweep.costmodel`: closed-form predictions seeded
from measured constants, then EWMA self-calibration from observed
factorization timings so the choice tracks the machine it runs on.

Measured on the reference container (ring-oscillator Jacobians, which
have the banded-plus-coupling structure typical of MNA systems):

========  =====  =====  ==========  ===========
stages      n     nnz   splu (ms)   getrf (ms)
========  =====  =====  ==========  ===========
25          427   1729        1.39         5.23
101        1719   6973       11.03       181.10
========  =====  =====  ==========  ===========

Dense factorization scales as ``n^3`` plus an ``n^2`` assembly/copy
term per Newton iteration; sparse factorization on circuit-like
patterns scales roughly as ``nnz * log2(n)`` (fill-in stays modest:
9-21x on the rings above, versus ~100x for *random* patterns of the
same density — which is why the constants here must come from real
circuit matrices, and why :meth:`SolverCostModel.observe` keeps
re-calibrating from live factorizations).
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

__all__ = ["SolverCostModel", "DEFAULT_SOLVER_COST_MODEL"]


@dataclass
class SolverCostModel:
    """Predicts per-iteration solve cost for the two backends.

    ``choose`` is deliberately conservative: below ``min_size`` dense
    always wins (factorization is microseconds and BLAS constants
    dominate), and sparse must be predicted ``min_speedup`` times
    faster before we switch, so noisy calibration can't flap the
    decision for circuits near the crossover.
    """

    #: Dense LU factorization, seconds per n^3 (LAPACK dgetrf).
    dense_factor_ns3: float = 0.05e-9
    #: Dense per-iteration assembly + matvec traffic, seconds per n^2.
    dense_assemble_ns2: float = 2.0e-9
    #: Sparse LU factorization, seconds per nnz*log2(n) (SuperLU on
    #: circuit-structured patterns; includes symbolic + numeric).
    sparse_factor_ns: float = 130.0e-9
    #: Sparse per-iteration scatter + matvec, seconds per nnz.
    sparse_assemble_ns: float = 30.0e-9
    #: Observed LU fill-in ratio (factor nnz over matrix nnz), EWMA of
    #: live factorizations; directly reflects the fill-reducing column
    #: ordering in effect (``.OPTIONS PERMC=``).
    fill_ratio: float = 12.0
    #: The fill baked into the measured ``sparse_factor_ns`` constant
    #: (the ring Jacobians above under SuperLU's default ordering);
    #: :meth:`sparse_cost` scales by ``fill_ratio / reference_fill`` so
    #: a better (or worse) ordering shifts the crossover accordingly.
    reference_fill: float = 12.0
    #: Below this many unknowns, always dense.
    min_size: int = 192
    #: Sparse must beat dense by this factor to be chosen.
    min_speedup: float = 1.2
    #: EWMA weight for observed-timing calibration.
    calibration_weight: float = 0.3
    #: Observations folded in per backend (introspection / tests).
    observations: dict = field(default_factory=lambda: {"dense": 0,
                                                        "sparse": 0})
    #: Guards the EWMA coefficients: :data:`DEFAULT_SOLVER_COST_MODEL`
    #: is shared by every compiled circuit, and concurrent analyses
    #: (thread sweeps, service jobs) observe into it simultaneously.
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  init=False, repr=False, compare=False)

    def dense_cost(self, size: int) -> float:
        """Predicted seconds for one dense factorize + assemble."""
        return (self.dense_factor_ns3 * size ** 3
                + self.dense_assemble_ns2 * size ** 2)

    def sparse_cost(self, size: int, nnz: int) -> float:
        """Predicted seconds for one sparse factorize + assemble.

        The factor term scales with the observed fill-in relative to
        the fill the calibration constant was measured at, so a
        fill-reducing ordering (lower :attr:`fill_ratio`) makes sparse
        win earlier and a fill-heavy one pushes the crossover out.
        """
        work = nnz * math.log2(max(size, 2))
        fill_scale = self.fill_ratio / max(self.reference_fill, 1e-12)
        return (self.sparse_factor_ns * work * fill_scale
                + self.sparse_assemble_ns * nnz)

    def choose(self, size: int, nnz: int) -> str:
        """``"dense"`` or ``"sparse"`` for a ``size``-unknown system whose
        compiled pattern has ``nnz`` structural entries."""
        if size < self.min_size:
            return "dense"
        dense = self.dense_cost(size)
        sparse = self.sparse_cost(size, nnz)
        return "sparse" if dense > self.min_speedup * sparse else "dense"

    def observe(self, backend: str, size: int, nnz: int | None,
                seconds: float, fill: float | None = None) -> None:
        """Fold one measured factorization into the calibration.

        The observed time re-estimates the backend's *factor*
        coefficient only (assembly terms are too small to separate
        from timer noise); EWMA smoothing keeps one outlier from
        swinging the crossover.  ``fill`` (factor nnz over matrix nnz,
        reported by :class:`~repro.spice.engine.SparseLUSolver`) tracks
        the live fill-in so :meth:`sparse_cost` reflects the column
        ordering actually in effect.
        """
        if seconds <= 0.0 or size <= 0:
            return
        with self._lock:
            w = self.calibration_weight
            if backend == "dense":
                estimate = seconds / float(size) ** 3
                self.dense_factor_ns3 += w * (estimate
                                              - self.dense_factor_ns3)
                self.observations["dense"] += 1
            elif backend == "sparse" and nnz:
                work = nnz * math.log2(max(size, 2))
                estimate = seconds / work
                self.sparse_factor_ns += w * (estimate
                                              - self.sparse_factor_ns)
                if fill is not None and fill > 0.0:
                    self.fill_ratio += w * (fill - self.fill_ratio)
                self.observations["sparse"] += 1

    def crossover(self, density_per_row: float = 4.0,
                  sizes=(64, 96, 128, 192, 256, 384, 512, 768, 1024)) -> int:
        """Smallest probed size where sparse wins at the given density.

        Purely informational (docs / profile output); returns the last
        probed size + 1 if dense wins everywhere.
        """
        for size in sizes:
            nnz = int(density_per_row * size)
            if self.choose(size, nnz) == "sparse":
                return size
        return sizes[-1] + 1


#: Process-wide model shared by every compiled circuit, so calibration
#: from one analysis benefits the next (mirrors the sweep dispatch
#: model's module-level singleton).
DEFAULT_SOLVER_COST_MODEL = SolverCostModel()
