"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see them
inline); every tolerance is pinned here, not deferred to configuration.
"""

import random
import time

import numpy as np

from ktphase import expr as E
from ktphase import theories as TH
from ktphase import verify as VF
from ktphase.calc_var import (
    LocalVarForm,
    constraint_extract,
    ibp_split,
    reconstruction_defect,
    variation,
    vertical_delta,
)
from ktphase.cli import emit_theory, parse_theory
from ktphase.expr import substitute
from ktphase.lattice import (
    LatticeGrid,
    LatticeModel,
    assemble_two_form,
    coisotropy_check,
    divergence_free_em_data,
    evolve_em,
    hamiltonian_vector_field,
    poisson_bracket,
    surface_tangent_basis,
)

SEED = 20240


def _report(n, label, ok, detail, budget, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {n} ({label}): {detail}  [{elapsed:.2f}s < {budget:.0f}s]")
    assert ok, f"criterion {n}: {detail}"
    assert elapsed < budget, f"criterion {n} exceeded its runtime budget: {elapsed:.1f}s"


def test_criterion_1_mechanics():
    t0 = time.time()
    t = TH.builtin("mechanics")
    ctx = t.context()
    split = ibp_split(variation(t), t)
    ((w, el),) = split.el
    el_ok = el == E.parse("m*q'' + V'(q)", ctx)
    bctx = E.Context(coords=("t",), transversal=0)
    bctx.declare_field("q")
    bctx.declare_field("v")
    bctx.declare_field("m", meta=E.SymbolMeta(background=True, constant=True))
    alpha_ok = split.alpha == LocalVarForm(1, [((bctx.jetvar("q", (), 0, ()),),
                                                E.parse("m*v", bctx))])

    m_val = 2.0
    model = LatticeModel(TH.chart("mechanics"), LatticeGrid(shape=()),
                         bindings={"m": m_val},
                         functions={("V", 0): lambda q: 0.25 * q ** 4,
                                    ("V", 1): lambda q: q ** 3})
    H = TH.chart("mechanics").hamiltonian
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        s = model.random_state(rng)
        om = assemble_two_form(model, s)
        X, res = hamiltonian_vector_field(om, model.density_gradient(H, s))
        q, v = float(s["q"][0]), float(s["v"][0])
        worst = max(worst, abs(X[0, 0] - v), abs(X[0, 1] + q ** 3 / m_val), res)
    flow_ok = worst <= 1e-12
    _report(1, "mechanics", el_ok and alpha_ok and flow_ok,
            f"el exact: {el_ok}, alpha exact: {alpha_ok}, max flow error {worst:.2e} <= 1e-12",
            1.0, time.time() - t0)


def test_criterion_2_length_functional():
    t0 = time.time()
    model = LatticeModel(TH.chart("length"), LatticeGrid(shape=()))
    rng = np.random.default_rng(SEED)
    ranks_ok = True
    min_gap = np.inf
    min_cos = 1.0
    for _ in range(50):
        state = model.random_state(rng)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        state["u"] = u.reshape(state["u"].shape)
        omega = assemble_two_form(model, state)
        P = surface_tangent_basis(model, state)
        B = P.T @ omega.full() @ P
        sv = np.linalg.svd(B, compute_uv=False)
        ranks_ok = ranks_ok and int((sv > 1e-8 * sv[0]).sum()) == 4
        min_gap = min(min_gap, sv[3] / max(sv[4], 1e-300))
        _, _, Vt = np.linalg.svd(B)
        kvec = P @ Vt[-1]
        min_cos = min(min_cos, abs(float(np.dot(kvec[:3], u))) / np.linalg.norm(kvec))
    ok = ranks_ok and min_gap > 1e6 and min_cos >= 1.0 - 1e-10
    _report(2, "length functional",
            ok, f"rank 4 at 50 points: {ranks_ok}, min gap {min_gap:.1e} > 1e6, "
                f"kernel cosine {min_cos:.15f} >= 1 - 1e-10",
            5.0, time.time() - t0)


def test_criterion_3_scalar_field():
    t0 = time.time()
    t = TH.builtin("scalar")
    split = TH.derived_split("scalar")
    bctx = E.Context(coords=("x0", "x1"), transversal=0)
    bctx.declare_field("phi")
    bctx.declare_field("phi0")
    bctx.declare_field("rh", meta=E.SymbolMeta(background=True, positive=True))
    alpha_ok = split.alpha == LocalVarForm(1, [((bctx.jetvar("phi", (), 0, ()),),
                                                E.parse("phi0*rh", bctx))])

    result = VF.check_lattice("scalar", TH.golden("scalar"), seed=SEED)
    rank_entry = result["entries"]["rank"]
    order_entry = result["entries"]["current_order"]
    rank_ok = rank_entry["pass"] and rank_entry["rank"] == 64
    order_ok = order_entry["pass"] and abs(order_entry["order"] - 2.0) <= 0.2
    _report(3, "scalar field", alpha_ok and rank_ok and order_ok,
            f"alpha exact: {alpha_ok}, rank {rank_entry['rank']} == 64, "
            f"current order {order_entry['order']:.3f} within 2.0 +/- 0.2",
            30.0, time.time() - t0)


def test_criterion_4_electromagnetism():
    t0 = time.time()
    t = TH.builtin("em")
    split = TH.derived_split("em")
    cons = constraint_extract(t, split)
    chart = TH.chart("em")
    declared = substitute(dict(chart.constraints)["gauss"], chart.momenta_map(),
                          t.jet_order + 1)
    gauss_ok = len(cons) == 1 and cons[0][0] == "A[0]" and cons[0][1] == declared

    grid = LatticeGrid(shape=(16, 16, 16))
    model = LatticeModel(chart, grid, bindings=TH.flat_metric_bindings(t))
    rng = np.random.default_rng(SEED)
    state = divergence_free_em_data(grid, rng)

    omega = assemble_two_form(model, model.zero_state())
    J = TH.constraint_set("em").by_name("J")
    xerr = f0err = 0.0
    for _ in range(5):
        smear = J.random_smear(model, rng)
        X, res = hamiltonian_vector_field(omega, J.gradient(model, state, smear))
        Xs = model.vector_to_state(X)
        lam = smear[("lam", ())]
        glam = np.stack([grid.diff(lam, i) for i in range(3)], axis=-1)
        xerr = max(xerr, float(np.abs(Xs["A"] - glam).max()), res)
        f0err = max(f0err, float(np.abs(Xs["F0"]).max()))
    x_ok = xerr <= 1e-10 and f0err <= 1e-10

    worst_jj = 0.0
    for _ in range(20):
        s1, s2 = J.random_smear(model, rng), J.random_smear(model, rng)
        v = poisson_bracket(J.gradient(model, state, s1), J.gradient(model, state, s2), omega)
        worst_jj = max(worst_jj, abs(v))
    jj_ok = worst_jj <= 1e-10

    _, gauss = evolve_em(state, grid, dt=0.2, steps=1000)
    drift = float(gauss.max() - gauss[0])
    gauss_drift_ok = drift <= 1e-12

    _report(4, "electromagnetism", gauss_ok and x_ok and jj_ok and gauss_drift_ok,
            f"gauss density exact: {gauss_ok}, X_lam errors (A {xerr:.1e}, F0 {f0err:.1e}) "
            f"<= 1e-10, max {{J,J}} {worst_jj:.1e} <= 1e-10 over 20 pairs, "
            f"gauss drift {drift:.1e} <= 1e-12 over 1000 steps",
            120.0, time.time() - t0)


def test_criterion_5_pc_pointwise():
    t0 = time.time()
    from ktphase.pointlin import (
        canonical_eps,
        coframe_kernel_dim,
        injective_w21,
        internal_act,
        random_coframe,
        random_pform,
        structural_fix,
        wedge,
    )
    rng = random.Random(SEED)
    eps = canonical_eps()
    kernel_hits = injective_hits = fix_hits = 0
    n = 100
    for _ in range(n):
        e = random_coframe(rng, require_spacelike=True)
        if coframe_kernel_dim(e) == 6:
            kernel_hits += 1
        if injective_w21(e):
            injective_hits += 1
        T = random_pform(rng, 2, 1)
        fix = structural_fix(e, eps, T)  # raises if v is ambiguous
        if wedge(e, fix.v).is_zero() and \
           wedge(eps, T + internal_act(fix.v, e)) == wedge(e, fix.sigma):
            fix_hits += 1
    ok = kernel_hits == n and injective_hits == n and fix_hits == n
    _report(5, "coframe gravity pointwise", ok,
            f"kernel dim 6: {kernel_hits}/{n}, injective: {injective_hits}/{n}, "
            f"structural solve exact with unique shift: {fix_hits}/{n}",
            60.0, time.time() - t0)


def test_criterion_6_pc_lattice():
    t0 = time.time()
    model = LatticeModel(TH.chart("pc4"), LatticeGrid(shape=(1, 1, 1)), bindings={"Lam": 0.0})
    cs = TH.constraint_set("pc4")
    P = cs.by_name("P")
    rng = np.random.default_rng(SEED)
    worst_xc = 0.0
    worst_bracket = 0.0
    worst_violation = 0.0
    all_pass = True
    for _ in range(20):
        state = TH.pc_on_surface_state(model, rng)
        omega = assemble_two_form(model, state)
        smear = P.random_smear(model, rng)
        X, res = hamiltonian_vector_field(omega, P.gradient(model, state, smear))
        ce = TH.pc_internal_rotation(smear, state["e"]).reshape(-1)
        # the coframe block of the minimum-norm solution is unique (the kernel
        # lies in the connection block), so compare it directly
        worst_xc = max(worst_xc, float(np.abs(X[0, :12] - ce).max()), res)
        result = coisotropy_check(cs, model, state, rng, samples=8,
                                  bracket_tol=1e-6, surface_tol=1e-8)
        all_pass = all_pass and result.passed
        worst_bracket = max(worst_bracket, result.max_bracket)
        worst_violation = max(worst_violation, result.violation)
    ok = worst_xc <= 1e-8 and all_pass
    _report(6, "coframe gravity lattice", ok,
            f"X_c(e) = c.e to {worst_xc:.1e} <= 1e-8 at 20 on-surface states, "
            f"coisotropy max bracket {worst_bracket:.1e} <= 1e-6 "
            f"(surface violation {worst_violation:.1e})",
            300.0, time.time() - t0)


def test_criterion_7_property_suite():
    t0 = time.time()
    delta_sq = True
    reconstruction = True
    for name in TH.THEORY_NAMES:
        t = TH.builtin(name)
        d1 = vertical_delta(LocalVarForm.scalar(t.lagrangian))
        delta_sq = delta_sq and vertical_delta(d1).is_zero()
        reconstruction = reconstruction and reconstruction_defect(TH.derived_split(name)).is_zero()

    # divergence-shift invariance of the field equations
    from ktphase.calc_var import TheorySpec
    scalar = TH.builtin("scalar")
    ctx = scalar.context()
    g = E.parse("phi^2*d[1]phi", ctx)
    shifted = TheorySpec(name="scalar_shift", dim=scalar.dim, coords=scalar.coords,
                         transversal=scalar.transversal, fields=scalar.fields,
                         backgrounds=scalar.backgrounds, functions=scalar.functions,
                         lagrangian=scalar.lagrangian + E.total_derivative(g, 1, scalar.jet_order),
                         jet_order=scalar.jet_order, vdim=scalar.vdim,
                         boundary_side=scalar.boundary_side)
    shift_ok = ibp_split(variation(shifted), shifted).el == TH.derived_split("scalar").el

    round_trip = all(parse_theory(emit_theory(TH.builtin(name))) == TH.builtin(name)
                     for name in TH.THEORY_NAMES)
    ok = delta_sq and reconstruction and shift_ok and round_trip
    _report(7, "pipeline property suite", ok,
            f"delta^2 = 0: {delta_sq}, reconstruction identity: {reconstruction}, "
            f"divergence-shift invariance: {shift_ok}, parse/emit round-trip: {round_trip}",
            60.0, time.time() - t0)
