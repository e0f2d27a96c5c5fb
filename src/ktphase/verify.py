"""Check drivers: run a theory through the pipeline and compare against its
golden record.

Each driver returns a dict of named entries ``{entry: {"pass": bool, ...}}``
plus an overall flag; these are the lattice report records (ranks, residuals,
bracket values, convergence orders) that the command-line front end embeds in
its reports, and the acceptance suite asserts them one by one.  The lattice
drivers sample states and write the reports; ``lattice`` measures on the
2-form (``two_form_rank``, ``coisotropy_check``,
``symplectic_current_check``), and ``_generator`` compares a density's vector
field with its expected motion.  An entry passes when each worst value it
reports is within the threshold it reports (``_worst``; a NaN fails).  All
randomness is seeded; tolerances come from the golden record (every rank is
the cut ``lattice.numerical_rank``), and so do grid sizes unless the caller
gives a grid shape.
"""

from __future__ import annotations

import time

import numpy as np

from . import expr as ex
from . import theories as TH
from .calc_var import (
    reconstruction_defect,
    verify_chart,
    vertical_delta,
)
from .errors import CheckFailure
from .lattice import (
    LatticeGrid,
    LatticeModel,
    assemble_two_form,
    coisotropy_check,
    divergence_free_em_data,
    evolve_em,
    hamiltonian_vector_field,
    numerical_rank,
    random_smear,
    surface_tangent_basis,
    symplectic_current_check,
    two_form_rank,
)

__all__ = ["check_symbolic", "check_point", "check_lattice"]


def _entry(ok, **info):
    d = {"pass": bool(ok)}
    d.update(info)
    return d


def _alltrue(entries):
    return all(v["pass"] for v in entries.values())


# rule -> (the worst of the draws d given the threshold t, the test it must pass)
_RULES = {
    "at most": (lambda d, t: np.max(d), lambda worst, t: worst <= t),
    "above": (lambda d, t: np.min(d), lambda worst, t: worst > t),
    "near 1": (lambda d, t: np.min(d), lambda worst, t: worst >= 1.0 - t),
    "equal": (lambda d, t: d[np.argmax(np.abs(d - t))], lambda worst, t: worst == t),
}


def _worst(rule: str, **limits) -> dict:
    """One lattice entry: ``limits`` maps each threshold it reports to
    ``(value, {field: measurements, one per draw})``.  Each field reports its
    worst draw, and the entry passes when each meets its threshold by
    ``rule``; a NaN draw is the worst (``np.max``, ``np.min``) and fails."""
    pick, meets = _RULES[rule]
    entry = {"pass": True}
    for name, (limit, fields) in limits.items():
        entry[name] = limit
        for field, draws in fields.items():
            entry[field] = worst = pick(np.asarray(draws), limit).item()
            entry["pass"] &= bool(meets(worst, limit))
    return entry


# ---------------------------------------------------------------------------
# symbolic stage
# ---------------------------------------------------------------------------

def check_symbolic(name: str, golden: dict) -> dict:
    """Compare the canonical renderings of the derived split with the golden
    record, verify the declared chart and its field order (``chart_fields``,
    the slot order of the lattice draws), and assert the structural
    identities (reconstruction, nilpotency of the vertical differential)."""
    split = TH.derived_split(name)
    entries = {key: _entry(got == golden[key], got=got, expected=golden[key])
               for key, got in split.renderings.items()}
    entries["reconstruction"] = _entry(reconstruction_defect(split).is_zero())
    entries["delta_squared"] = _entry(vertical_delta(split.variation).is_zero())
    try:
        chart = TH.chart(name)
        verify_chart(chart, split)
        fields = [f.name for f in chart.fields]
        if fields != golden["chart_fields"]:
            raise CheckFailure(f"chart fields {fields}, golden {golden['chart_fields']}")
        entries["chart"] = _entry(True)
    except CheckFailure as exc:
        entries["chart"] = _entry(False, error=str(exc))

    return {"entries": entries, "passed": _alltrue(entries)}


# ---------------------------------------------------------------------------
# pointwise exact checks (coframe gravity)
# ---------------------------------------------------------------------------

def check_point(name: str, golden: dict, samples: int | None = None, seed: int = 0) -> dict:
    import random

    from .pointlin import (
        canonical_eps,
        coframe_kernel_dim,
        injective_w21,
        random_coframe,
        random_pform,
        structural_fix,
    )

    spec = golden["point"]
    n = samples if samples is not None else spec["samples"]
    want_dim = spec["kernel_dim"]
    rng = random.Random(seed)
    eps = canonical_eps()
    t0 = time.perf_counter()
    kernel_ok = injective_ok = fix_ok = 0
    for _ in range(n):
        e = random_coframe(rng, require_spacelike=True)
        if coframe_kernel_dim(e) == want_dim:
            kernel_ok += 1
        if injective_w21(e):
            injective_ok += 1
        T = random_pform(rng, 2, 1)
        # structural_fix raises on any v-ambiguity, so a returned fix already
        # certifies the zero-dimensional kernel; it rechecks both identities
        # exactly and returns their residuals, read here
        fix = structural_fix(e, eps, T)
        if fix.kernel_residual.is_zero() and fix.constraint_residual.is_zero():
            fix_ok += 1
    entries = {
        "kernel_dim": _entry(kernel_ok == n, hits=kernel_ok, samples=n, expected=want_dim),
        "injective_w21": _entry(injective_ok == n, hits=injective_ok, samples=n),
        "structural_fix": _entry(fix_ok == n, hits=fix_ok, samples=n),
        "runtime_s": _entry(True, seconds=round(time.perf_counter() - t0, 3)),
    }
    return {"entries": entries, "passed": _alltrue(entries)}


# ---------------------------------------------------------------------------
# lattice checks, one driver per theory
# ---------------------------------------------------------------------------

def _generator(omega, density, state, smear, motion) -> tuple:
    """``(X, residual, deviation)``: the hamiltonian vector field (sites by
    slots) of a density at ``state`` and ``smear``, its solve's residual, and
    its largest deviation from an expected ``motion`` (chart slot ->
    expression, evaluated there) on the slots that ``motion`` names."""
    model = omega.model
    X, res = hamiltonian_vector_field(omega, model.density_gradient(density, state, smear))
    want = np.stack([model.evaluate(e, state, smear).reshape(-1) for e in motion.values()], axis=-1)
    dev = float(np.abs(X[:, [model.slot_index[slot] for slot in motion]] - want).max())
    return X, res, dev


def _mechanics_lattice(golden, seed):
    spec = golden["lattice"]
    m_val = spec["m"]
    model = LatticeModel(TH.chart("mechanics"), LatticeGrid(shape=()),
                         bindings={"m": m_val},
                         functions={("V", 0): lambda q: 0.25 * q ** 4,
                                    ("V", 1): lambda q: q ** 3})
    rng = np.random.default_rng(seed)
    entries = {}
    state = model.random_state(rng)
    omega = assemble_two_form(model, state)
    expected = np.array([[0.0, -m_val], [m_val, 0.0]])  # (q, v) slot order
    entries["omega_matrix"] = _entry(np.allclose(omega.blocks[0], expected, atol=0),
                                     block=omega.blocks[0].tolist())
    rank = two_form_rank(omega)
    entries["rank"] = _entry(rank == 2, rank=rank, expected=2)
    H = model.chart.hamiltonian
    # Hamilton's equations over the chart's symbols: q' = v, v' = -V'(q) / m
    sym = {w.field: ex.Expr.var(w) for w in H.jet_vars()}
    hamilton = {("q", ()): sym["v"], ("v", ()): -ex.apply_fn("V", 1, sym["q"]) / sym["m"]}
    errors = []
    for _ in range(spec["ham_points"]):
        s = model.random_state(rng)
        _, res, dev = _generator(assemble_two_form(model, s), H, s, None, hamilton)
        errors += [dev, res]
    entries["hamiltonian_flow"] = _worst("at most", tol=(spec["ham_tol"], {"max_err": errors}))
    return entries


def _length_lattice(golden, seed):
    spec = golden["lattice"]
    model = LatticeModel(TH.chart("length"), LatticeGrid(shape=()))
    rng = np.random.default_rng(seed)
    ranks, gaps, cosines = [], [], []
    for _ in range(spec["points"]):
        state = model.random_state(rng)
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        state["u"] = u.reshape(state["u"].shape)
        omega = assemble_two_form(model, state)
        P = surface_tangent_basis(model, state)
        _, sv, Vt = np.linalg.svd(P.T @ omega.full() @ P)
        ranks.append(numerical_rank(sv))
        gaps.append(sv[spec["rank"] - 1] / max(sv[spec["rank"]], 1e-300))
        kvec = P @ Vt[-1]
        cosines.append(abs(float(np.dot(kvec[:3], u))) / np.linalg.norm(kvec))
    return {"rank": _worst("equal", expected=(spec["rank"], {"rank": ranks})),
            "spectral_gap": _worst("above", gap_min=(spec["gap_min"], {"min_gap": gaps})),
            "kernel_direction": _worst("near 1", tol=(spec["cos_tol"], {"min_cosine": cosines}))}


def _convergence_order(dts, defects) -> tuple:
    """``(p, C, D, residual)`` of the fit ``d(h) = C h^p + D h^(p+1)`` to signed
    defects, relative to ``|d|``: linear least squares in ``(C, D)`` for each
    candidate ``p``, the best among fits whose leading term is resolved at the
    finest step (``|C| >= |D| h``), so that ``C`` near 0 with ``p`` near 1
    cannot win when the ``h^2`` coefficient is small."""
    orders = np.linspace(0.5, 4.0, 3501)  # resolved to 1e-3
    h, d = np.asarray(dts, float), np.asarray(defects, float)
    p = orders[:, None, None]
    A = np.concatenate([h[:, None] ** p, h[:, None] ** (p + 1)], axis=-1) / np.abs(d)[:, None]
    At = np.swapaxes(A, -1, -2)
    coef = np.linalg.solve(At @ A, At @ np.sign(d)[:, None])[..., 0]  # normal equations
    r = np.einsum("pnk,pk->pn", A, coef) - np.sign(d)
    residual = np.sqrt(np.sum(r * r, axis=-1))
    resolved = np.abs(coef[:, 0]) >= np.abs(coef[:, 1]) * h.min()
    k = int(np.argmin(np.where(resolved, residual, np.inf)))
    return float(orders[k]), float(coef[k, 0]), float(coef[k, 1]), float(residual[k])


def _scalar_lattice(golden, seed, grid_shape=None):
    spec = golden["lattice"]
    t = TH.builtin("scalar")
    shape = tuple(grid_shape or spec["grid"])
    grid = LatticeGrid(shape=shape, spacing=1.0)
    model = LatticeModel(TH.chart("scalar"), grid, bindings=TH.flat_metric_bindings(t))
    rng = np.random.default_rng(seed)
    entries = {}
    omega = assemble_two_form(model, model.zero_state())
    rank = two_form_rank(omega)
    entries["rank"] = _entry(rank == 2 * grid.nsites, rank=rank, expected=2 * grid.nsites)

    def smooth(a):
        for _ in range(6):
            a = grid.smooth(a)
        return a

    x0 = {"phi": smooth(rng.standard_normal(shape)), "phi0": smooth(rng.standard_normal(shape))}
    y0 = {"phi": smooth(rng.standard_normal(shape)), "phi0": smooth(rng.standard_normal(shape))}
    steps = [(int(round(spec["t_a"] / dt)), int(round(spec["t_b"] / dt)), dt) for dt in spec["dts"]]
    defects = [symplectic_current_check(omega, x0, y0, *step) for step in steps]
    order, C, D, residual = _convergence_order(spec["dts"], defects)
    entries["current_order"] = _entry(abs(order - spec["order"]) <= spec["order_tol"],
                                      order=order, C=C, D=D, residual=residual, defects=defects,
                                      expected=spec["order"], tol=spec["order_tol"])
    return entries


def _em_lattice(golden, seed, grid_shape=None):
    spec = golden["lattice"]
    t = TH.builtin("em")
    shape = tuple(grid_shape or spec["grid"])
    grid = LatticeGrid(shape=shape, spacing=1.0)
    model = LatticeModel(TH.chart("em"), grid, bindings=TH.flat_metric_bindings(t))
    rng = np.random.default_rng(seed)
    entries = {}

    state = divergence_free_em_data(grid, rng)
    _, gauss = evolve_em(state, grid, dt=spec["dt"], steps=spec["gauss_steps"])
    drift = float(gauss.max() - gauss[0])
    entries["gauss_drift"] = _entry(drift <= spec["gauss_drift_tol"], drift=drift,
                                    initial=float(gauss[0]), tol=spec["gauss_drift_tol"])

    omega = assemble_two_form(model, model.zero_state())
    cs = TH.constraint_set("em")
    J = cs["J"]
    direction = TH.gauge_direction("em")
    # J generates the Gauss law: its site sum is minus that of lam times the
    # Gauss density, which a wrong gauge direction breaks
    gauss_density = model.evaluate(dict(model.chart.constraints)["gauss"], state)
    draws = []
    for _ in range(5):
        smear = random_smear(model, J, rng)
        X, res, dev = _generator(omega, J, state, smear, direction)
        j = model.evaluate(J, state, smear)
        # 0 / 1e-300 reads 0 where J vanishes, on a grid too thin to difference
        defect = abs(j.sum() + np.sum(smear[("lam", ())] * gauss_density))
        draws.append((dev, np.abs(model.vector_to_state(X)["F0"]).max(),
                      defect / max(np.abs(j).sum(), 1e-300), res))
    a, f, g, r = zip(*draws)
    entries["gauge_vector_field"] = _worst("at most", tol=(spec["xlam_tol"], {
        "max_A_err": a, "max_F0": f, "max_gauss_defect": g, "residual": r}))

    bracket, violation = coisotropy_check(cs, omega, state, rng, samples=spec["jj_pairs"])
    entries["abelian_brackets"] = _worst("at most", tol=(spec["jj_tol"], {"max_bracket": [bracket]}),
                                         surface_tol=(spec["jj_tol"], {"max_violation": [violation]}))
    return entries


def _pc4_lattice(golden, seed):
    spec = golden["lattice"]
    model = LatticeModel(TH.chart("pc4"), LatticeGrid(shape=(1, 1, 1)),
                         bindings={"Lam": spec.get("lam", 0.0)})
    cs = TH.constraint_set("pc4")
    direction = TH.gauge_direction("pc4")
    rng = np.random.default_rng(seed)
    P = cs["P"]
    draws = []
    for _ in range(spec["states"]):
        state = TH.pc_on_surface_state(model, rng)
        omega = assemble_two_form(model, state)
        _, res, dev = _generator(omega, P, state, random_smear(model, P, rng), direction)
        draws.append((model.nslots - two_form_rank(omega), dev, res)
                     + coisotropy_check(cs, omega, state, rng, samples=spec["bracket_samples"]))
    kernel, err, res, bracket, violation = zip(*draws)
    return {"kernel_per_site": _worst("equal", expected=(spec["kernel_per_site"],
                                                         {"kernel": kernel})),
            "internal_rotation": _worst("at most", tol=(spec["xc_tol"], {"max_err": err,
                                                                           "max_residual": res})),
            "coisotropy": _worst("at most", tol=(spec["bracket_tol"], {"max_bracket": bracket}),
                                 surface_tol=(spec["surface_tol"], {"max_violation": violation}))}


def check_lattice(name: str, golden: dict, seed: int = 0, grid_shape=None) -> dict:
    t0 = time.perf_counter()
    if name == "mechanics":
        entries = _mechanics_lattice(golden, seed)
    elif name == "length":
        entries = _length_lattice(golden, seed)
    elif name == "scalar":
        entries = _scalar_lattice(golden, seed, grid_shape)
    elif name == "em":
        entries = _em_lattice(golden, seed, grid_shape)
    elif name == "pc4":
        entries = _pc4_lattice(golden, seed)
    else:
        raise KeyError(name)
    entries["runtime_s"] = _entry(True, seconds=round(time.perf_counter() - t0, 3))
    return {"entries": entries, "passed": _alltrue(entries)}

