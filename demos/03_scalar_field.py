"""The free scalar field: boundary data and the conserved pairing.

With the split metric, restricting the variation to a spatial slice pairs the
normal derivative with the field value: the boundary 2-form is the canonical
one on (phi, phi0) and has full rank (no constraints, no gauge directions).
The pairing of two linearized solutions is time-independent in the continuum;
on the lattice the defect shrinks at second order as the time step refines.
"""

import numpy as np

import ktphase as kt
from ktphase import expr as E
from ktphase import theories

t = theories.builtin("scalar")
ctx = t.context()
print("L =", E.to_text(t.lagrangian, ctx))

split = kt.ibp_split(kt.variation(t), t)
print("field equation:", E.to_text(split.el[0][1], ctx), "= 0")
print("boundary 1-form:", split.alpha.to_text(ctx))
print("boundary 2-form:", kt.vertical_delta(split.alpha).to_text(ctx))
print("constraints:", kt.constraint_extract(t, split) or "none  (every datum evolves)")

grid = kt.LatticeGrid(shape=(32,))
model = kt.LatticeModel(theories.chart("scalar"), grid,
                        bindings=theories.flat_metric_bindings(t))
Omega = kt.assemble_two_form(model, model.zero_state())
print(f"\n32-site slice: 2-form rank {kt.two_form_rank(Omega)} of {2 * grid.nsites}")

rng = np.random.default_rng(3)

def smooth(a):
    for _ in range(6):
        a = grid.smooth(a)
    return a

x0 = {"phi": smooth(rng.standard_normal(32)), "phi0": smooth(rng.standard_normal(32))}
y0 = {"phi": smooth(rng.standard_normal(32)), "phi0": smooth(rng.standard_normal(32))}
# the defect is signed, and may change sign at coarse steps: an order is
# read off two successive defects only where they share a sign
print("\nsigned symplectic-current defect omega_a - omega_b under dt refinement:")
prev = None
for dt in (0.2, 0.1, 0.05, 0.025):
    d = kt.symplectic_current_check(Omega, x0, y0, int(2 / dt), int(8 / dt), dt)
    note = f"   (order {np.log2(prev / d):.3f})" if prev is not None and prev * d > 0 else ""
    print(f"  dt = {dt:<6} signed defect = {d:.3e}{note}")
    prev = d
