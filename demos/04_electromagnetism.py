"""Electromagnetism: the first genuinely constrained example.

The time component of the field equations does not evolve anything: it is
the Gauss law, a condition on the boundary data themselves.  Its smeared
generator has a hamiltonian vector field that moves the potential by a pure
gradient -- a gauge transformation -- and annihilates the electric covector.
The discrete evolution below conserves the Gauss density to machine
precision, because the update is a divergence of an antisymmetric flux.
"""

import numpy as np

import ktphase as kt
from ktphase import expr as E
from ktphase import theories
from ktphase.lattice import divergence_free_em_data, em_gauss, evolve_em

t = theories.builtin("em")
ctx = t.context()
split = kt.ibp_split(kt.variation(t), t)
print("boundary 1-form:", split.alpha.to_text(ctx)[:100], "...")
cons = kt.constraint_extract(t, split)
print("constraints extracted:", [n for n, _ in cons])
print("gauss density:", E.to_text(cons[0][1], ctx)[:110], "...")

grid = kt.LatticeGrid(shape=(16, 16, 16))
model = kt.LatticeModel(theories.chart("em"), grid,
                        bindings=theories.flat_metric_bindings(t))
rng = np.random.default_rng(4)
state = divergence_free_em_data(grid, rng)
print(f"\n16^3 grid; initial Gauss residual: {np.abs(em_gauss(grid, state['F0'])).max():.2e}")

_, gauss = evolve_em(state, grid, dt=0.2, steps=1000)
print(f"Gauss residual after 1000 leapfrog steps: {gauss[-1]:.2e} "
      f"(drift {gauss.max() - gauss[0]:.2e})")

# the gauge generator and its expected direction, A[j] -> d[j]lam
Omega = kt.assemble_two_form(model, model.zero_state())
J = theories.constraint_set("em")["J"]
smear = kt.random_smear(model, J, rng)
X, res = kt.hamiltonian_vector_field(Omega, model.density_gradient(J, state, smear))
Xs = model.vector_to_state(X)
dlam = np.stack([model.evaluate(d, state, smear) for d in theories.gauge_direction("em").values()],
                axis=-1)
print(f"\ngauge generator: |X_A - grad(lam)| = {np.abs(Xs['A'] - dlam).max():.2e}, "
      f"|X_F0| = {np.abs(Xs['F0']).max():.2e}, residual {res:.2e}")

vals = [abs(kt.poisson_bracket(model.density_gradient(J, state, kt.random_smear(model, J, rng)),
                               model.density_gradient(J, state, kt.random_smear(model, J, rng)),
                               Omega))
        for _ in range(10)]
print(f"abelian constraint algebra: max |{{J, J}}| over 10 pairs = {max(vals):.2e}")
