"""Regenerate ``ising_ref.json``: R(T, H) on the ``figure ising`` grid.

    python3 perfbench/make_ising_ref.py

The grid is the recipe's (J = 1, H in {0.5, 1, 1.5, 2}, 60 temperatures
geometrically spaced over [0.2, 10]).  Values come from
``reference.ricci_2d`` at twice the working precision the package uses, and
every eighth point is recomputed at three times that precision to show the
digits are settled.  Takes about a minute; the result is committed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import reference

J = 1.0
H_VALUES = (0.5, 1.0, 1.5, 2.0)
T_RANGE = (0.2, 10.0)
SAMPLES = 60
SETTLED_RTOL = 1e-12


def main():
    Ts = [float(t) for t in np.geomspace(*T_RANGE, SAMPLES)]
    phi = reference.ising_phi(J)
    table = {"J": J, "H": list(H_VALUES), "T": Ts, "R": []}
    worst = 0.0
    for H in H_VALUES:
        row = []
        for i, T in enumerate(Ts):
            dps = reference.ising_dps(T, H, J)
            R = reference.ricci_2d(phi, (T, H), 0, dps)
            if i % 8 == 0:
                R3 = reference.ricci_2d(phi, (T, H), 0, 3 * dps // 2)
                worst = max(worst, abs(R - R3) / abs(R3))
            row.append(R)
        table["R"].append(row)
    if worst > SETTLED_RTOL:
        raise SystemExit(f"reference not settled: rel change {worst:.3e}")
    out = Path(__file__).resolve().parent / "ising_ref.json"
    out.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {out.name}; max rel change at higher precision {worst:.3e}")


if __name__ == "__main__":
    main()
