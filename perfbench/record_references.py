#!/usr/bin/env python3
"""Regenerate ``perfbench/references.json`` from the current code.

    python3 perfbench/record_references.py

The references pin the outputs the benchmark checks: Table 1 frequencies
to 4 significant digits and the best shape, the 101-stage ring's early
waveform, and the Fig. 9 fT curves.  Record them only from a commit whose
outputs are known good; the benchmark then counts any departure as a
failed operation.  (Corner outcomes, Monte-Carlo AC values and service
payloads are checked live against the scalar serial path and direct
solves, so they need no stored reference.)
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> int:
    import wl_corners
    import wl_ring101
    import wl_table1

    table1 = wl_table1.Workload(0, {"table1_ring": None})
    table1.setup()
    frequencies = {}
    for name in table1.models:
        _, frequency, _ = table1._shape(name)()
        frequencies[name] = float(f"{frequency:.4g}")

    ring = wl_ring101.Workload(0, {"ring101_sparse": None})
    ring.setup()
    assembly, unknowns, _, samples, _ = ring._round()
    assert assembly == "sparse", assembly

    references = {
        "table1_ring": {
            "frequency_hz_4sig": frequencies,
            "best_shape": max(frequencies, key=frequencies.get),
        },
        "ring101_sparse": {"unknowns": unknowns, "samples_v": samples},
        "corner_sweeps": {"ft_hz": wl_corners.ft_curves()},
    }
    (HERE / "references.json").write_text(
        json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
