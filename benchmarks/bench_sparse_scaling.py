"""Dense-vs-sparse assembly crossover on the scaled ring oscillator.

The dense engine assembles every Newton iteration into an ``(n, n)``
matrix; the sparse assembly path fills a flat nnz-length data array
over the compiled symbolic pattern and factorizes with sparse LU.  The
assembly backend picks the solver, so the dense arm factorizes with
LAPACK LU at every size: at 51 and 101 stages the gap includes a real
O(n^3) dense factorization per Newton iteration.  Each row records the
dense arm's solver as ``dense_solver`` (always ``"dense-lu"``).  This
benchmark times the Fig. 11
ring-oscillator transient under both backends while the topology scales
from the paper's 5 stages (87 unknowns) to 101 stages (1719 unknowns) —
past the dense O(n^2) scaling wall — and archives the crossover curve in
``BENCH_sparse.json``.

Gates (CI enforces them on the artifact as well):

* at the 101-stage point the sparse backend must be >= 3x faster;
* the sparse runs must report **zero** dense assemblies — the flat
  scatter path handles every stamp, including device bypass replay and
  the fused ``G + alpha*C`` transient Jacobian;
* the compiled symbolic pattern must actually be reused across
  factorizations (``pattern_reuses`` > 0), and both backends must land
  on the same waveform.
"""

import time

import numpy as np

from repro.geometry import ModelParameterGenerator, default_reference
from repro.rfsystems import RingOscillatorSpec, build_ring_oscillator
from repro.spice.engine import GLOBAL_STATS, get_engine
from repro.spice.transient import solve_transient

from conftest import record_sparse, report

#: Short window: enough accepted steps (~40) to amortize compile and DC,
#: small enough that the 101-stage dense arm stays CI-feasible.
STOP_TIME = 0.12e-9
MAX_STEP = 3e-12
#: Stage counts must be odd (ring logic); spans both sides of the
#: ~200-unknown cost-model crossover.
STAGES = (5, 25, 51, 101)
#: Best-of rounds per arm, relaxed for the big configurations.
ROUNDS = {5: 3, 25: 3, 51: 2, 101: 2}
PARITY_WINDOW = 0.1e-9


def _ring(stages):
    generator = ModelParameterGenerator(reference=default_reference())
    return build_ring_oscillator(
        generator.generate("N1.2-12D"),
        follower_model=generator.generate("N1.2-6D"),
        spec=RingOscillatorSpec(stages=stages),
    )


def _run(stages, backend):
    """One timed transient on a fresh circuit; returns result + counters."""
    circuit = _ring(stages)
    engine = get_engine(circuit, backend)
    snapshot = GLOBAL_STATS.copy()
    t0 = time.perf_counter()
    result = solve_transient(
        circuit, stop_time=STOP_TIME, max_step=MAX_STEP, engine=engine
    )
    wall = time.perf_counter() - t0
    delta = GLOBAL_STATS.since(snapshot)
    return result, wall, delta.as_dict(), engine


def _best_of(stages, backend):
    best = None
    for _ in range(ROUNDS[stages]):
        candidate = _run(stages, backend)
        if best is None or candidate[1] < best[1]:
            best = candidate
    return best


def _waveform_deviation(ref, got):
    t_end = min(PARITY_WINDOW, ref.times[-1], got.times[-1])
    grid = np.linspace(0.0, t_end, 100)
    worst = 0.0
    for col in range(len(ref.circuit.node_map)):
        a = np.interp(grid, ref.times, ref.states[:, col])
        b = np.interp(grid, got.times, got.states[:, col])
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


def bench_sparse_scaling():
    lines = [
        f"{'stages':>6} {'n':>6} {'nnz':>7} {'dense_s':>9} {'sparse_s':>9} "
        f"{'speedup':>8} {'fill':>6} {'dev_V':>9}"
    ]
    headline = None
    for stages in STAGES:
        dense_res, t_dense, d_dense, dense_engine = _best_of(stages,
                                                             "dense")
        sparse_res, t_sparse, d_sparse, engine = _best_of(stages, "sparse")

        speedup = t_dense / t_sparse
        deviation = _waveform_deviation(dense_res, sparse_res)
        n = int(dense_res.states.shape[1])
        nnz = int(engine.pattern.nnz)
        fill = (d_sparse["factor_nnz"] / nnz) if nnz else 0.0

        # Observability contract: the sparse arm never touches a dense
        # (n, n) assembly, the dense arm never scatters, and the
        # symbolic pattern is reused instead of re-analyzed.
        assert d_sparse["dense_assemblies"] == 0
        assert d_sparse["sparse_assemblies"] > 0
        assert d_sparse["pattern_reuses"] > 0
        assert d_dense["sparse_assemblies"] == 0
        assert deviation < 0.2, (
            f"backends diverged at {stages} stages: {deviation:.3g} V"
        )

        record_sparse(f"ring_oscillator_{stages}_stage", {
            "stages": stages,
            "unknowns": n,
            "pattern_nnz": nnz,
            "factor_nnz": d_sparse["factor_nnz"],
            "fill_in": round(fill, 2),
            "stop_time": STOP_TIME,
            "max_step": MAX_STEP,
            "dense_seconds": round(t_dense, 6),
            "sparse_seconds": round(t_sparse, 6),
            "speedup": round(speedup, 3),
            "waveform_deviation_v": float(deviation),
            "sparse_counters": {
                key: d_sparse[key]
                for key in (
                    "sparse_assemblies", "dense_assemblies",
                    "pattern_reuses", "factorizations", "solves",
                )
            },
            "dense_factorizations": d_dense["factorizations"],
            "dense_solver": dense_engine.solver.name,
        })
        lines.append(
            f"{stages:>6} {n:>6} {nnz:>7} {t_dense:>9.3f} {t_sparse:>9.3f} "
            f"{speedup:>7.2f}x {fill:>5.1f}x {deviation:>9.2e}"
        )
        if stages == 101:
            headline = speedup

    report("BENCH_sparse_scaling", "\n".join(lines))
    # The acceptance gate: past the crossover the dense O(n^2) assembly
    # and O(n^3) LAPACK factorization must lose decisively.  Locally
    # this measures well above 3x at 1719 unknowns.
    assert headline is not None and headline >= 3.0, (
        f"sparse speedup at 101 stages was {headline:.2f}x (< 3x)"
    )
