"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line (run pytest with -s to see them
inline).  The lattice criteria assert the entries of ``verify.check_lattice``
on the golden record, and pin every tolerance and sample count of that record
that they state: every tolerance is pinned here, not deferred to configuration.
"""

import random
import time

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

SEED = 20240


def _report(n, label, ok, detail, budget, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {n} ({label}): {detail}  [{elapsed:.2f}s < {budget:.0f}s]")
    assert ok, f"criterion {n}: {detail}"
    assert elapsed < budget, f"criterion {n} exceeded its runtime budget: {elapsed:.1f}s"


def _golden(name, block="lattice", **stated):
    """The golden record of ``name``, asserting that its ``block`` holds the
    values the criterion states, so that loosening the record fails the gate
    too.  The criterion's runtime budget is the block's ``runtime_budget_s``."""
    golden = TH.golden(name)
    got = {key: golden[block][key] for key in stated}
    assert got == stated, f"golden record of {name}: {got}, the gate states {stated}"
    return golden


def _lattice_entries(name, golden):
    entries = VF.check_lattice(name, golden, seed=SEED)["entries"]
    failed = sorted(key for key, entry in entries.items() if not entry["pass"])
    return entries, failed


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

    golden = _golden("mechanics", m=2, ham_points=20, ham_tol=1e-12, runtime_budget_s=1)
    entries, failed = _lattice_entries("mechanics", golden)
    worst = entries["hamiltonian_flow"]["max_err"]
    _report(1, "mechanics", el_ok and alpha_ok and not failed,
            f"el exact: {el_ok}, alpha exact: {alpha_ok}, max flow error {worst:.2e} <= 1e-12 "
            f"at 20 points, failed entries: {failed}",
            golden["lattice"]["runtime_budget_s"], time.time() - t0)


def test_criterion_2_length_functional():
    t0 = time.time()
    golden = _golden("length", points=50, rank=4, gap_min=1e6, cos_tol=1e-10,
                     runtime_budget_s=5)
    entries, failed = _lattice_entries("length", golden)
    _report(2, "length functional", not failed,
            f"rank 4 at 50 points: {entries['rank']['pass']}, "
            f"min gap {entries['spectral_gap']['min_gap']:.1e} > 1e6, kernel cosine "
            f"{entries['kernel_direction']['min_cosine']:.15f} >= 1 - 1e-10, "
            f"failed entries: {failed}",
            golden["lattice"]["runtime_budget_s"], time.time() - t0)


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

    golden = _golden("scalar", grid=[32], order=2, order_tol=0.2, runtime_budget_s=30)
    entries, _ = _lattice_entries("scalar", golden)
    rank_entry = entries["rank"]
    order_entry = entries["current_order"]
    rank_ok = rank_entry["pass"] and rank_entry["rank"] == 64
    order_ok = order_entry["pass"] and abs(order_entry["order"] - 2.0) <= 0.2
    _report(3, "scalar field", alpha_ok and rank_ok and order_ok,
            f"alpha exact: {alpha_ok}, rank {rank_entry['rank']} == 64, "
            f"current order {order_entry['order']:.3f} within 2.0 +/- 0.2",
            golden["lattice"]["runtime_budget_s"], time.time() - t0)


def test_criterion_4_electromagnetism():
    t0 = time.time()
    t = TH.builtin("em")
    split = TH.derived_split("em")
    cons = constraint_extract(t, split)
    chart = TH.chart("em")
    declared = substitute(dict(chart.constraints)["gauss"], chart.momenta_map(),
                          t.jet_order + 1)
    gauss_ok = len(cons) == 1 and cons[0][0] == "A[0]" and cons[0][1] == declared

    golden = _golden("em", grid=[16, 16, 16], xlam_tol=1e-10, jj_pairs=20, jj_tol=1e-10,
                     dt=0.2, gauss_steps=1000, gauss_drift_tol=1e-12, runtime_budget_s=120)
    entries, failed = _lattice_entries("em", golden)
    x = entries["gauge_vector_field"]
    # the residual of X_lam, which the entry also holds to xlam_tol
    residual_ok = x["residual"] <= 1e-10
    _report(4, "electromagnetism", gauss_ok and not failed and residual_ok,
            f"gauss density exact: {gauss_ok}, X_lam errors (A {x['max_A_err']:.1e}, "
            f"F0 {x['max_F0']:.1e}, residual {x['residual']:.1e}) <= 1e-10, max {{J,J}} "
            f"{entries['abelian_brackets']['max_bracket']:.1e} <= 1e-10 over 20 pairs, gauss drift "
            f"{entries['gauss_drift']['drift']:.1e} <= 1e-12 over 1000 steps, "
            f"failed entries: {failed}",
            golden["lattice"]["runtime_budget_s"], time.time() - t0)


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
    golden = _golden("pc4", "point", samples=100, kernel_dim=6, runtime_budget_s=60)
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
            golden["point"]["runtime_budget_s"], time.time() - t0)


def test_criterion_6_pc_lattice():
    t0 = time.time()
    golden = _golden("pc4", lam=0, states=20, kernel_per_site=6, xc_tol=1e-8,
                     bracket_samples=8, bracket_tol=1e-6, surface_tol=1e-8, runtime_budget_s=300)
    entries, failed = _lattice_entries("pc4", golden)
    x, co = entries["internal_rotation"], entries["coisotropy"]
    _report(6, "coframe gravity lattice", not failed,
            f"X_c(e) = c.e to {x['max_err']:.1e} (residual {x['max_residual']:.1e}) <= 1e-8 "
            f"at 20 on-surface states, coisotropy max bracket {co['max_bracket']:.1e} <= 1e-6 "
            f"(surface violation {co['max_violation']:.1e} <= 1e-8), failed entries: {failed}",
            golden["lattice"]["runtime_budget_s"], time.time() - t0)


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
