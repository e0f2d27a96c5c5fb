"""Regenerate the golden records from the pipeline.

Run after an intentional change to the derivation conventions, then review
the diff: every changed string is a change of the package's public canonical
output.  Lattice targets and tolerances are hand-maintained here, not
derived, since they pin the acceptance thresholds.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from ktphase import theories as TH
from ktphase.cli import canonical_json

LATTICE_TARGETS = {
    "mechanics": {
        "m": 2.0, "ham_points": 20, "ham_tol": 1e-12, "runtime_budget_s": 1.0,
    },
    "length": {
        "points": 50, "rank": 4, "gap_min": 1e6, "cos_tol": 1e-10,
        "runtime_budget_s": 5.0,
    },
    "scalar": {
        "grid": [32], "rank": 64, "dts": [0.2, 0.1, 0.05, 0.025],
        "t_a": 2.0, "t_b": 8.0, "order": 2.0, "order_tol": 0.2,
        "runtime_budget_s": 30.0,
    },
    "em": {
        "grid": [16, 16, 16], "dt": 0.2, "gauss_steps": 1000,
        "gauss_drift_tol": 1e-12, "xlam_tol": 1e-10,
        "jj_pairs": 20, "jj_tol": 1e-10, "runtime_budget_s": 120.0,
    },
    "pc4": {
        "states": 20, "xc_tol": 1e-8, "bracket_tol": 1e-6, "surface_tol": 1e-8,
        "bracket_samples": 8, "kernel_per_site": 6, "lam": 0.0,
        "runtime_budget_s": 300.0,
    },
}

POINT_TARGETS = {
    "pc4": {"samples": 100, "kernel_dim": 6, "runtime_budget_s": 60.0},
}

NOTES = {
    "mechanics": "field equation and boundary 1-form on the outgoing copy; "
                 "hamiltonian flow (-V'/m, v) checked numerically",
    "length": "boundary 1-form is the normalized velocity paired with the "
              "position variation; reduced rank 4 = dim of the tangent bundle "
              "of the 2-sphere, kernel parallel to the direction vector",
    "scalar": "boundary 1-form on the incoming copy (field-theory convention); "
              "full-rank boundary 2-form, symplectic current conserved at "
              "second order under dt refinement",
    "em": "Gauss density extracted as the only constraint; gauge generator "
          "moves the potential by the smearing gradient and annihilates the "
          "electric covector; abelian brackets vanish",
    "pc4": "torsion (P) and curvature (T) constraint densities extracted from "
           "the transversal field components; six-dimensional connection "
           "kernel per point; internal rotations act as c.e on the coframe; "
           "all constraint brackets vanish on the structurally-fixed surface",
}


def build(name: str) -> dict:
    t = TH.builtin(name)
    split = TH.derived_split(name)
    record = {
        "theory": name,
        "side": t.boundary_side,
        **split.renderings,
        "chart_fields": [f.name for f in TH.chart(name).fields],
        "lattice": LATTICE_TARGETS[name],
        "notes": NOTES[name],
    }
    if name in POINT_TARGETS:
        record["point"] = POINT_TARGETS[name]
    return record


def main():
    outdir = pathlib.Path(__file__).resolve().parents[1] / "src" / "ktphase" / "golden"
    outdir.mkdir(exist_ok=True)
    for name in TH.THEORY_NAMES:
        record = build(name)
        path = outdir / f"{name}.json"
        path.write_text(canonical_json(record) + "\n", encoding="utf-8")
        print(f"wrote {path} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
