"""Four-dimensional coframe gravity: the full reduction story in one point.

Everything interesting about the gravitational boundary data is ultralocal,
so a single lattice site exhibits it all:

* the boundary 2-form (from the e e delta(omega) density) has a
  six-dimensional kernel at every point -- connection shifts the coframe
  cannot see;
* the structural constraint picks a unique representative in each class
  (an exact-rational solve);
* on the constraint surface (torsion + curvature + structural conditions)
  the smeared constraint families all have hamiltonian vector fields, the
  internal-rotation generator acts on the coframe as c.e, and every pairwise
  bracket vanishes: the surface is coisotropic.
"""

import random

import numpy as np

import ktphase as kt
from ktphase import theories
from ktphase.lattice import coisotropy_check
from ktphase.pointlin import (
    canonical_eps,
    coframe_kernel_dim,
    injective_w21,
    random_coframe,
    random_pform,
    structural_fix,
)

# --- exact pointwise facts --------------------------------------------------

rng = random.Random(5)
e = random_coframe(rng, require_spacelike=True)
print("random space-like coframe:")
print("  kernel dimension of (e ^ .) on connection shifts:", coframe_kernel_dim(e))
print("  torsion-contraction injective:", injective_w21(e))

T = random_pform(rng, 2, 1)
fix = structural_fix(e, canonical_eps(), T)
print("  structural solve: unique shift found, sigma ambiguity =", fix.sigma_ambiguity)
print("  residuals are exact rational zeros by construction")

# --- the single-site lattice -------------------------------------------------

model = kt.LatticeModel(theories.chart("pc4"), kt.LatticeGrid(shape=(1, 1, 1)),
                        bindings={"Lam": 0.0})
nrng = np.random.default_rng(6)
state = theories.pc_on_surface_state(model, nrng)
print(f"\non-surface state: constraint violation "
      f"{theories.pc_surface_violation(model, state):.2e}")

Omega = kt.assemble_two_form(model, state)
print(f"2-form: rank {kt.two_form_rank(Omega)} of {model.nslots} "
      f"(kernel {model.nslots - kt.two_form_rank(Omega)}, all in the connection block)")

cs = theories.constraint_set("pc4")
smear = kt.random_smear(model, cs["P"], nrng)
X, res = kt.hamiltonian_vector_field(Omega, model.density_gradient(cs["P"], state, smear))
rotation = theories.gauge_direction("pc4")  # e[a,i] -> (c.e)[a,i]
ce = np.array([model.evaluate(d, state, smear).reshape(()) for d in rotation.values()])
e_slots = [model.slot_index[slot] for slot in rotation]
print(f"internal rotation generator: |X_c(e) - c.e| = {np.abs(X[0, e_slots] - ce).max():.2e}, "
      f"residual {res:.2e}")

# coisotropy_check measures; the golden record's tolerances decide, as in
# `ktphase check pc4`
tols = theories.golden("pc4")["lattice"]
bracket, violation = coisotropy_check(cs, Omega, state, nrng, samples=10)
coisotropic = bracket <= tols["bracket_tol"] and violation <= tols["surface_tol"]
print(f"coisotropy: max |bracket| = {bracket:.2e} over sampled pairs "
      f"of (internal, curvature, hamiltonian, momentum) generators -> "
      f"{'coisotropic' if coisotropic else 'NOT coisotropic'}")
