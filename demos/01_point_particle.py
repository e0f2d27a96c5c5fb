"""A point particle, end to end.

The simplest possible run through the workbench: declare L = m q'^2/2 - V(q),
derive the equation of motion and the boundary term that the variation leaves
behind, build the 2-form it generates, and recover Hamilton's equations
numerically from the assembled matrix.
"""

import numpy as np

import ktphase as kt
from ktphase import theories

from ktphase import expr as E

t = theories.builtin("mechanics")
ctx = t.context()
print("L =", E.to_text(t.lagrangian, ctx))

# variation and the unique split into field equation + boundary term
var = kt.variation(t)
print("\ndelta L =", var.to_text(ctx))
split = kt.ibp_split(var, t)
for w, el in split.el:
    print("equation of motion:", E.to_text(el, ctx), "= 0")
print("boundary 1-form:   ", split.alpha.to_text(ctx))

# its vertical differential is the symplectic form of (position, velocity)
omega = kt.vertical_delta(split.alpha)
print("boundary 2-form:   ", omega.to_text(ctx))

# realize it numerically (a 0-dimensional lattice: a single point)
model = kt.LatticeModel(theories.chart("mechanics"), kt.LatticeGrid(shape=()),
                        bindings={"m": 2.0},
                        functions={("V", 0): lambda q: 0.25 * q ** 4,
                                   ("V", 1): lambda q: q ** 3})
rng = np.random.default_rng(1)
state = model.random_state(rng)
Omega = kt.assemble_two_form(model, state)
print("\nassembled 2-form block (q, v):\n", Omega.blocks[0])

H = theories.chart("mechanics").hamiltonian
X, residual = kt.hamiltonian_vector_field(Omega, model.density_gradient(H, state))
q, v = float(state["q"][0]), float(state["v"][0])
print(f"hamiltonian vector field at (q={q:+.3f}, v={v:+.3f}):")
print(f"  X_q = {X[0, 0]:+.6f}   (expect  v      = {v:+.6f})")
print(f"  X_v = {X[0, 1]:+.6f}   (expect -V'/m   = {-q**3 / 2.0:+.6f})")
print(f"  residual = {residual:.2e}")
