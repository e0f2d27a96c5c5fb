"""Builtin theory corpus: Lagrangian content, charts, goldens, constraint sets."""

import dataclasses
import itertools
import pathlib
import random
from fractions import Fraction

import numpy as np
import pytest

from ktphase import expr as E
from ktphase import theories as TH
from ktphase import verify as VF
from ktphase.calc_var import ChartField, LocalVarForm, derived_chart, verify_chart
from ktphase.errors import CheckFailure
from ktphase.lattice import (
    DEFAULT_RANK_TOL,
    LatticeGrid,
    LatticeModel,
    assemble_two_form,
    hamiltonian_vector_field,
    numerical_rank,
    random_smear,
)
from ktphase.pointlin import (
    ETA,
    canonical_eps,
    internal_act,
    perm_sign,
    random_coframe,
    random_pform,
    structural_fix,
    structural_maps,
)

from em_oracle import em_by_hand


def test_builtin_names_and_unknown():
    for name in TH.THEORY_NAMES:
        t = TH.builtin(name)
        assert t.name == name
    with pytest.raises(KeyError):
        TH.builtin("yang-mills")
    with pytest.raises(KeyError):
        TH.golden("yang-mills")


def test_mechanics_lagrangian_form():
    t = TH.builtin("mechanics")
    ctx = t.context()
    assert t.lagrangian == E.parse("1/2*m*q'^2 - V(q)", ctx)
    assert t.dim == 1 and t.boundary_side == 1


def test_em_lagrangian_against_metric_contraction_oracle():
    # oracle: independently contract 1/4 g^{mu nu} g^{rho sigma} F F sqrt(h)
    # with the split metric at random rational jet values
    t = TH.builtin("em")
    rng = random.Random(17)
    d = 4
    for _ in range(8):
        A1 = {(mu, nu): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
              for mu in range(d) for nu in range(d)}  # A1[(mu, nu)] = d_mu A_nu
        hdiag = [Fraction(rng.randint(1, 4)) for _ in range(3)]
        rh = Fraction(rng.randint(1, 5), rng.randint(1, 3))

        def g(mu, nu):
            if mu != nu:
                return Fraction(0)
            return Fraction(-1) if mu == 0 else hdiag[mu - 1]

        def F(mu, nu):
            return A1[(mu, nu)] - A1[(nu, mu)]

        oracle = Fraction(0)
        for mu in range(d):
            for nu in range(d):
                for r in range(d):
                    for s in range(d):
                        oracle += g(mu, nu) * g(r, s) * F(mu, r) * F(nu, s)
        oracle = oracle * rh / 4

        point = {}
        for v in t.lagrangian.jet_vars():
            if v.field == "A":
                (nu,) = v.comp
                (mu,) = v.deriv
                point[v] = A1[(mu, nu)]
            elif v.field == "hinv":
                i, j = v.comp
                point[v] = hdiag[i - 1] if i == j else Fraction(0)
            elif v.field == "rh":
                point[v] = rh
        assert E.evaluate(t.lagrangian, point) == oracle


def test_pc4_lagrangian_against_orientation_oracle():
    # oracle: the orientation-contracted integrand
    # eps_{abcd} eps^{mnrs} (1/2 e e F + Lam/24 e e e e) built independently
    t = TH.builtin("pc4")
    rng = random.Random(23)
    # orientation tensor entries: (permutation of 0..3, sign), eps_0123 = +1
    eps4 = [(p, perm_sign(p)) for p in itertools.permutations(range(4))]
    eta = ETA
    for _ in range(3):
        ev = {(a, mu): Fraction(rng.randint(-3, 3), rng.randint(1, 2))
              for a in range(4) for mu in range(4)}
        om = {}
        for a in range(4):
            for b in range(4):
                for mu in range(4):
                    if a < b:
                        om[(a, b, mu)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        dom = {}
        for a in range(4):
            for b in range(a + 1, 4):
                for mu in range(4):
                    for nu in range(4):
                        dom[(a, b, mu, nu)] = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        lam = Fraction(rng.randint(-2, 2), 3)

        def omega(a, b, mu):
            if a == b:
                return Fraction(0)
            return om[(a, b, mu)] if a < b else -om[(b, a, mu)]

        def domega(a, b, mu, nu):  # d_mu omega^{ab}_nu
            if a == b:
                return Fraction(0)
            return dom[(a, b, mu, nu)] if a < b else -dom[(b, a, mu, nu)]

        def curv(c, dd, r, s):
            val = domega(c, dd, r, s) - domega(c, dd, s, r)
            for f in range(4):
                val += eta[f] * (omega(c, f, r) * omega(f, dd, s)
                                 - omega(c, f, s) * omega(f, dd, r))
            return val

        oracle = Fraction(0)
        for (a, b, c, dd), si in eps4:
            for (mu, nu, r, s), sm in eps4:
                oracle += si * sm * (Fraction(1, 2) * ev[(a, mu)] * ev[(b, nu)] * curv(c, dd, r, s)
                                     + Fraction(lam, 24) * ev[(a, mu)] * ev[(b, nu)]
                                     * ev[(c, r)] * ev[(dd, s)])

        point = {}
        for v in t.lagrangian.jet_vars():
            if v.field == "e":
                point[v] = ev[(v.comp[0], v.comp[1])]
            elif v.field == "omega":
                a, b, nu = v.comp
                if v.deriv:
                    point[v] = dom[(a, b, v.deriv[0], nu)]
                else:
                    point[v] = om[(a, b, nu)]
            elif v.field == "Lam":
                point[v] = lam
        assert E.evaluate(t.lagrangian, point) == oracle


def test_scalar_lagrangian_signature():
    t = TH.builtin("scalar")
    ctx = t.context()
    expected = E.parse("1/2*rh*(-phi'^2 + hinv[1,1]*d[1]phi^2)", ctx)
    assert t.lagrangian == expected


def test_all_charts_verify():
    for name in TH.THEORY_NAMES:
        verify_chart(TH.chart(name), TH.derived_split(name))


def _doubled_gradient_momenta(ch):
    # F0[j] = A0[j] - 2 d[j]A[0] instead of A0[j] - d[j]A[0]
    out = []
    for key, img in ch.momenta:
        a0 = next(v for v in img.jet_vars() if v.field == "A0")
        out.append((key, img * E.Expr.const(2) - E.Expr.var(a0)))
    return tuple(out)


def _em_in_gauge(ch, a_time, a0_scale):
    """em's chart with alpha, Gauss density and hamiltonian the images of the
    derived ones under ``A[0] -> a_time`` and ``A0[j] -> a0_scale * F0[j]``."""
    t = TH.builtin("em")
    meta = E.SymbolMeta(excluded=frozenset({0}))
    images = {("A0", (j,)): E.Expr.var(E.JetVar("F0", (j,), (), meta)) * E.Expr.const(a0_scale)
              for j in t.tangential()}
    if a_time is not None:
        images[("A", (0,))] = a_time
    fix = lambda e: E.substitute(e, images, t.jet_order + 1)
    derived = derived_chart(TH.derived_split("em"))
    (_, gauss), = derived.constraints
    return dataclasses.replace(ch, alpha=derived.alpha.map_coeffs(fix), constraints=(("gauss", fix(gauss)),),
                               hamiltonian=fix(derived.hamiltonian))


def test_em_chart_is_the_hand_built_data():
    # the temporal-gauge image of the derivation is the electric-field chart
    # written out by hand; every kernel lowered from the chart rests on it
    ch = TH.chart("em")
    alpha, gauss, H = em_by_hand(TH.builtin("em"))
    assert ch.alpha == alpha
    assert ch.constraints == (("gauss", gauss),)
    assert ch.hamiltonian == H
    assert _em_in_gauge(ch, E.ZERO, 1) == ch


@pytest.mark.parametrize("name, broken", [
    ("em", lambda ch: dataclasses.replace(ch, momenta=_doubled_gradient_momenta(ch))),
    ("length", lambda ch: dataclasses.replace(ch, alpha=ch.alpha.scale(2))),
    ("em", lambda ch: dataclasses.replace(ch, constraints=ch.constraints[1:])),
    ("pc4", lambda ch: dataclasses.replace(ch, constraints=ch.constraints[1:])),
    ("em", lambda ch: _em_in_gauge(ch, None, 1)),
    ("em", lambda ch: _em_in_gauge(ch, E.ZERO, 2)),
], ids=["em-momentum", "length-alpha", "em-dropped-constraint", "pc4-dropped-constraint",
        "em-free-time-component", "em-doubled-electric-field"])
def test_verify_chart_rejects_a_wrong_chart(name, broken):
    with pytest.raises(CheckFailure):
        verify_chart(broken(TH.chart(name)), TH.derived_split(name))


def test_check_symbolic_reports_a_wrong_chart(monkeypatch):
    from ktphase.verify import check_symbolic
    good = TH.chart("em")
    monkeypatch.setattr(TH, "chart", lambda name: dataclasses.replace(good, alpha=good.alpha.scale(2)))
    res = check_symbolic("em", TH.golden("em"))
    chart = res["entries"]["chart"]
    assert chart["pass"] is False and "does not match" in chart["error"]
    assert not res["passed"]


def test_check_symbolic_reports_swapped_chart_fields(monkeypatch):
    # the chart still verifies with its fields swapped, but the golden
    # chart_fields fix the slot order that every lattice entry draws in
    from ktphase.verify import check_symbolic
    good = TH.chart("em")
    swapped = dataclasses.replace(good, fields=good.fields[::-1])
    verify_chart(swapped, TH.derived_split("em"))
    monkeypatch.setattr(TH, "chart", lambda name: swapped)
    res = check_symbolic("em", TH.golden("em"))
    chart = res["entries"]["chart"]
    assert chart["pass"] is False and "chart fields ['F0', 'A']" in chart["error"]
    assert not res["passed"]


def test_derived_split_shares_one_entry_per_theory():
    t = TH.builtin("mechanics")
    assert TH.derived_split("mechanics") is TH.derived_split(t)


def _form(ctx, var, coeff):
    return LocalVarForm(1, [((E.JetVar(var),), E.parse(coeff, ctx))])


def test_derived_mechanics_chart_oracle():
    t = TH.builtin("mechanics")
    ctx = _golden_context(t)
    ch = TH.chart("mechanics")
    assert ch.fields == (ChartField("q", ((),)), ChartField("v", ((),)))
    assert ch.alpha == _form(ctx, "q", "m*v")
    assert ch.hamiltonian == E.parse("1/2*m*v^2 + V(q)", ctx)
    assert ch.tangential == () and ch.constraints == ()


def test_derived_scalar_chart_oracle():
    t = TH.builtin("scalar")
    ctx = _golden_context(t)
    ch = TH.chart("scalar")
    assert ch.fields == (ChartField("phi", ((),)), ChartField("phi0", ((),)))
    assert ch.alpha == _form(ctx, "phi", "phi0*rh")
    assert ch.hamiltonian == E.parse("1/2*rh*(phi0^2 + hinv[1,1]*d[1]phi^2)", ctx)
    assert ch.tangential == (1,) and ch.constraints == ()


def test_derived_pc4_chart_layout_and_no_hamiltonian():
    # the transversal legs e[a,0] and omega[a,b,0] are multipliers, not chart
    # slots, so the canonical energy is not a function on the chart
    ch = TH.chart("pc4")
    tang = (1, 2, 3)
    assert ch.fields == (
        ChartField("e", tuple((a, i) for a in range(4) for i in tang)),
        ChartField("omega", tuple((a, b, i) for a in range(4) for b in range(a + 1, 4)
                                  for i in tang)))
    assert ch.hamiltonian is None
    assert ch.alpha == TH.derived_split("pc4").alpha


def test_golden_expressions_renormalize_to_themselves():
    # every stored expression parses under the theory context and re-renders
    # byte-identically (the invariant that makes goldens regression-stable)
    for name in TH.THEORY_NAMES:
        t = TH.builtin(name)
        g = TH.golden(name)
        ctx = _golden_context(t)
        for text in list(g["el"].values()) + list(g["constraints"].values()):
            e = E.parse(text, ctx)
            assert E.to_text(e, ctx) == text


def _golden_context(t):
    # goldens reference boundary symbols too; extend the context with the
    # default and declared renames
    ctx = t.context()
    renames = t.renames()
    for f in t.fields:
        sizes = t.index_sizes(f)
        for order in (1, 2):
            name = renames.get((f.name, order), f.name + "0" * order)
            try:
                ctx.declare_field(name, sizes)
            except Exception:
                pass
    return ctx


def test_golden_matches_derivation():
    from ktphase.verify import check_symbolic
    for name in TH.THEORY_NAMES:
        result = check_symbolic(name, TH.golden(name))
        assert result["passed"], result


def test_make_golden_reproduces_shipped_records():
    # the golden generator and the shipped records agree byte for byte
    import importlib.util

    from ktphase.cli import canonical_json
    root = pathlib.Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("make_golden", root / "scripts" / "make_golden.py")
    make_golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_golden)
    for name in TH.THEORY_NAMES:
        shipped = (root / "src" / "ktphase" / "golden" / f"{name}.json").read_bytes()
        assert (canonical_json(make_golden.build(name)) + "\n").encode("utf-8") == shipped, name


def test_check_symbolic_extracts_once_and_never_revaries(monkeypatch):
    # on a derived split, check_symbolic extracts the constraints once, for
    # the renderings and the chart together, and reuses the split's
    # variation: no vertical differential of a scalar density
    from ktphase import calc_var as CV
    from ktphase import verify as VF
    counts = {"extract": 0, "vary": 0}

    def counting_extract(f):
        def wrapped(*args, **kwargs):
            counts["extract"] += 1
            return f(*args, **kwargs)
        return wrapped

    def counting_delta(f):
        def wrapped(v):
            counts["vary"] += v.degree == 0
            return f(v)
        return wrapped

    monkeypatch.setattr(CV, "constraint_extract", counting_extract(CV.constraint_extract))
    for module in (CV, VF):
        monkeypatch.setattr(module, "vertical_delta", counting_delta(module.vertical_delta))
    TH.derived_split.cache_clear()
    for name in TH.THEORY_NAMES:
        TH.derived_split(name)
        counts.update(extract=0, vary=0)
        assert VF.check_symbolic(name, TH.golden(name))["passed"]
        assert counts == {"extract": 1, "vary": 0}, name


def test_pc_boundary_form_is_coframe_quadratic():
    # the boundary 1-form coefficients are the 2x2 coframe minors predicted by
    # the orientation contraction of e e delta(omega)
    split = TH.derived_split("pc4")
    t = TH.builtin("pc4")
    ctx = t.context()
    coeffs = {gens[0].key: c for gens, c in split.alpha.terms}
    # delta(omega^{01}_1) pairs with the legs 2,3 in internal slots 2,3
    want = E.parse("4*e[2,2]*e[3,3] - 4*e[2,3]*e[3,2]", ctx)
    got = coeffs[("omega", (0, 1, 1), ())]
    assert E.map_vars(got, lambda v: E.JetVar(v.field, v.comp, v.deriv)) == want


def test_constraint_set_shapes():
    assert list(TH.constraint_set("pc4")) == ["P", "T", "H", "Pxi"]
    assert list(TH.constraint_set("em")) == ["J"]
    for name in ("mechanics", "length", "scalar"):
        assert TH.constraint_set(name) == {} and TH.gauge_direction(name) == {}
    for fn in (TH.constraint_set, TH.gauge_direction):
        with pytest.raises(KeyError):
            fn("yang-mills")


def _site_or_grid_model(name):
    if name == "em":
        return LatticeModel(TH.chart("em"), LatticeGrid(shape=(4, 4, 4)),
                            bindings=TH.flat_metric_bindings(TH.builtin("em")))
    return LatticeModel(TH.chart("pc4"), LatticeGrid(shape=(1, 1, 1)), bindings={"Lam": 0.5})


@pytest.mark.parametrize("name,family,want", [
    ("em", "J", [("lam", ())]),
    ("pc4", "P", [("c", (a, b)) for a in range(4) for b in range(a + 1, 4)]),
    ("pc4", "T", [("mu", (a,)) for a in range(4)]),
    ("pc4", "H", [("lam", ())]),
    ("pc4", "Pxi", [("xi", (i,)) for i in (1, 2, 3)]),
])
def test_random_smear_draws_what_the_chart_does_not_hold(name, family, want):
    # the smearing components are read off the density: exactly the
    # components above, one smoothed normal draw each, in this order
    model = _site_or_grid_model(name)
    smear = random_smear(model, TH.constraint_set(name)[family], np.random.default_rng(4))
    assert list(smear) == want
    rng = np.random.default_rng(4)
    for key in want:
        assert np.array_equal(smear[key], model.grid.smooth(rng.standard_normal(model.grid.shape)))
    ch = model.chart
    exprs = [e for _, e in ch.alpha.terms + ch.constraints] + list(ch.surface) + [ch.hamiltonian or E.Expr.const(0)]
    held = {f.name for f in ch.fields} | {v.field for e in exprs for v in e.jet_vars()}
    assert not {symbol for symbol, _ in smear} & held


def test_em_J_is_the_hand_built_gauss_generator():
    # oracle: em's smeared Gauss generator as it was written out by hand, the
    # gradient of the smearing against the electric flux; alpha(X_lam) has
    # the same normal form, so the same lowered kernel
    tang = TH.builtin("em").tangential()
    bmeta = E.SymbolMeta(background=True, excluded=frozenset({0}))
    lam = lambda i: E.Expr.var(E.JetVar("lam", (), (i,), bmeta))
    hv = lambda i, j: E.Expr.var(E.JetVar("hinv", (min(i, j), max(i, j)), (), bmeta))
    rh = E.Expr.var(E.JetVar("rh", (), (), E.SymbolMeta(background=True, excluded=frozenset({0}),
                                                        positive=True)))
    F0 = lambda j: E.Expr.var(E.JetVar("F0", (j,), (), E.SymbolMeta(excluded=frozenset({0}))))
    want = E.esum(lam(i) * hv(i, j) * F0(j) for i in tang for j in tang) * rh
    assert TH.constraint_set("em")["J"] == want


def test_pc_on_surface_state_and_violation():
    model = LatticeModel(TH.chart("pc4"), LatticeGrid(shape=(1, 1, 1)), bindings={"Lam": 0.5})
    rng = np.random.default_rng(8)
    state = TH.pc_on_surface_state(model, rng)
    assert TH.pc_surface_violation(model, state) < 1e-11
    # nontrivial connection (the cosmological term forces curvature)
    assert np.abs(state["omega"]).max() > 1e-3


def test_pc_structural_rows_against_exact_structural_fix():
    # omega0 + v with v = structural_fix(e, eps, omega0.e).v satisfies the
    # structural constraint exactly, so the float rows must annihilate it in
    # the chart's (a, b, i) column order; and |R omega| is the cokernel part
    # of eps ^ (d_omega e) with the torsion written out by components, which
    # pins the scale of the rows
    rng = random.Random(31)
    eps = canonical_eps()
    eta = np.array(ETA, float)
    pairs3 = [(i, j) for i in range(3) for j in range(i + 1, 3)]

    def flat(w):
        return np.array([float(w.get_full((i - 1,), (a, b))) for a, b, i in TH._PC_OM_COMPS])

    for _ in range(5):
        e = random_coframe(rng, require_spacelike=True)
        om0 = random_pform(rng, 1, 2)
        v = structural_fix(e, eps, internal_act(om0, e)).v
        E4 = np.array([[float(e.get_full((i,), (a,))) for i in range(3)] for a in range(4)])
        R = TH.pc_structural_rows(E4)
        assert np.abs(R @ flat(om0 + v)).max() < 1e-10
        assert np.abs(R @ flat(om0)).max() > 1e-3
        W = np.zeros((4, 4, 3))
        for (a, b, i), w in zip(TH._PC_OM_COMPS, flat(om0)):
            W[a, b, i - 1], W[b, a, i - 1] = w, -w
        tors = np.einsum("abi,b,bj->aij", W, eta, E4)
        tors = tors - tors.transpose(0, 2, 1)
        eps_tors = np.array([tors[a, i, j] if c == 0 else 0.0
                             for i, j in pairs3 for c, a in TH._PC_IPAIRS])
        S = np.array(structural_maps(e, eps)[1], float)
        coker = eps_tors - S @ np.linalg.lstsq(S, eps_tors, rcond=None)[0]
        assert np.isclose(np.linalg.norm(R @ flat(om0)), np.linalg.norm(coker), rtol=1e-10)


def test_structural_rows_refuse_a_sigma_map_the_rank_cut_finds_degenerate():
    # two legs of the unit coframe drawn together: the sigma map's smallest
    # singular value falls with their distance t, here to about 1e-9 of the
    # largest, inside lattice.numerical_rank's cut (DEFAULT_RANK_TOL = 1e-8)
    # and above the 1e-10 the rows once cut at on their own
    E4 = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    E4[:, 2] = E4[:, 0] + 3e-9 * E4[:, 2]
    _, ts = TH._pc_structural_tables()
    sv = np.linalg.svd(np.tensordot(E4.reshape(12), ts, 1), compute_uv=False)
    assert 1e-10 < sv[-1] / sv[0] < DEFAULT_RANK_TOL
    assert numerical_rank(sv) < sv.size
    with pytest.raises(CheckFailure, match="sigma-map degenerate"):
        TH.pc_structural_rows(E4)
    # a hundred times farther apart, the legs pass the cut
    E4[:, 2] = E4[:, 0] + 3e-7 * np.array([0, 0, 0, 1.0])
    assert TH.pc_structural_rows(E4).shape == (6, 18)


def test_check_point_reads_the_residuals_of_the_structural_solve(monkeypatch):
    # each sample wedges four times, all inside structural_fix: eps ^ T for
    # the right-hand side, then e ^ v, eps ^ (T + v.e) and e ^ sigma for the
    # exact recheck, whose residuals check_point reads
    from ktphase import pointlin, verify
    golden = TH.golden("pc4")
    verify.check_point("pc4", golden, samples=1, seed=0)  # build the map tables
    calls = []
    monkeypatch.setattr(pointlin, "wedge", lambda *a, f=pointlin.wedge: calls.append(1) or f(*a))
    out = verify.check_point("pc4", golden, samples=5, seed=1)
    assert out["entries"]["structural_fix"] == {"pass": True, "hits": 5, "samples": 5}
    assert len(calls) == 4 * 5


def test_check_point_fails_on_a_corrupted_structural_map(monkeypatch):
    from ktphase import pointlin, verify
    from ktphase.errors import InconsistentSystemError

    def corrupted(e, eps, f=pointlin.structural_maps):
        m_v, m_s = f(e, eps)
        m_v = [list(row) for row in m_v]
        row = next(r for r in m_v if any(r))
        j = next(j for j, x in enumerate(row) if x)
        row[j] += 1
        return m_v, m_s

    monkeypatch.setattr(pointlin, "structural_maps", corrupted)
    with pytest.raises(InconsistentSystemError, match="constraint identity"):
        verify.check_point("pc4", TH.golden("pc4"), samples=3, seed=0)


def test_pc4_gauge_direction_is_the_internal_rotation():
    # (c . e)^a_i = eta_rs c^ar e^s_i for an antisymmetric c, evaluated from
    # the direction's expressions on the coframe slots in chart order
    model = _site_or_grid_model("pc4")
    direction = TH.gauge_direction("pc4")
    assert list(direction) == [("e", comp) for comp in model.field_comps["e"]]
    rng = np.random.default_rng(9)
    eta = np.array(ETA, float)
    for _ in range(20):
        state = model.random_state(rng)
        c = {("c", (a, b)): rng.standard_normal((1, 1, 1)) for a in range(4) for b in range(a + 1, 4)}
        got = np.array([model.evaluate(d, state, c).reshape(()) for d in direction.values()])
        cm = np.zeros((4, 4))
        for (_, (a, b)), arr in c.items():
            cm[a, b] = float(arr.reshape(()))
            cm[b, a] = -cm[a, b]
        want = np.einsum("ar,r,ri->ai", cm, eta, state["e"].reshape(4, 3))
        assert np.array_equal(got.reshape(4, 3), want)


def test_internal_rotation_fails_for_a_direction_with_one_flipped_sign(monkeypatch):
    # negative control: in e[1,1] -> c[0,1] e[0,1] + c[1,2] e[2,1] + c[1,3] e[3,1]
    # flip the sign of the eta_0 term, as a euclidean internal metric would
    golden = TH.golden("pc4")
    golden = {**golden, "lattice": {**golden["lattice"], "states": 2}}
    assert VF.check_lattice("pc4", golden, seed=0)["entries"]["internal_rotation"]["pass"]
    right = TH.gauge_direction("pc4")
    slot = ("e", (1, 1))
    term = E.Expr.var(E.JetVar("c", (0, 1))) * E.Expr.var(E.JetVar("e", (0, 1)))
    assert term.terms[0] in right[slot].terms
    monkeypatch.setattr(TH, "gauge_direction", lambda name: {**right, slot: right[slot] - 2 * term})
    entry = VF.check_lattice("pc4", golden, seed=0)["entries"]["internal_rotation"]
    assert not entry["pass"] and entry["max_err"] > 1e-2


def test_hamiltonian_vector_field_of_T_moves_coframe_by_connection():
    # on the structurally-fixed surface the curvature generator moves the
    # coframe by the covariant differential of the smearing (ultralocal part)
    model = LatticeModel(TH.chart("pc4"), LatticeGrid(shape=(1, 1, 1)), bindings={"Lam": 0.0})
    rng = np.random.default_rng(10)
    state = TH.pc_on_surface_state(model, rng)
    T = TH.constraint_set("pc4")["T"]
    smear = random_smear(model, T, rng)
    omega = assemble_two_form(model, state)
    Y, res = hamiltonian_vector_field(omega, model.density_gradient(T, state, smear))
    assert res < 1e-10
    W = np.zeros((4, 4, 3))
    for idx, (a, b, i) in enumerate(TH._PC_OM_COMPS):
        w = state["omega"].reshape(18)[idx]
        W[a, b, i - 1] = w
        W[b, a, i - 1] = -w
    mu = np.array([float(smear[("mu", (a,))].reshape(())) for a in range(4)])
    eta = np.array(ETA, float)
    dmu = np.einsum("abi,b,b->ai", W, eta, mu)
    assert np.abs(Y[0, :12].reshape(4, 3) - dmu).max() < 1e-12


def test_momentum_constraint_equals_contracted_T():
    # P_xi with xi smearing equals T_mu with mu = xi^i e_i contracted, and the
    # cosmological part drops out identically (a 4-form on the 3-slice)
    model = LatticeModel(TH.chart("pc4"), LatticeGrid(shape=(1, 1, 1)), bindings={"Lam": 2.0})
    rng = np.random.default_rng(12)
    state = model.random_state(rng)
    cs = TH.constraint_set("pc4")
    xi = random_smear(model, cs["Pxi"], rng)
    E4 = state["e"].reshape(4, 3)
    mu = {("mu", (a,)): sum(float(xi[("xi", (i,))].reshape(())) * E4[a, i - 1]
                            for i in (1, 2, 3)) * np.ones((1, 1, 1))
          for a in range(4)}
    def value(m, family, smear):  # a single site of unit volume
        return float(m.evaluate(cs[family], state, smear).sum())

    assert abs(value(model, "Pxi", xi) - value(model, "T", mu)) < 1e-10
    # Lam-independence
    model0 = LatticeModel(TH.chart("pc4"), LatticeGrid(shape=(1, 1, 1)), bindings={"Lam": 0.0})
    assert abs(value(model, "Pxi", xi) - value(model0, "Pxi", xi)) < 1e-10


def test_flat_metric_bindings_cover_tangential_indices():
    t = TH.builtin("em")
    b = TH.flat_metric_bindings(t)
    assert b[("hinv", (1, 1))] == 1.0 and b[("hinv", (1, 2))] == 0.0 and b["rh"] == 1.0


def test_hashing_a_lagrangian_builds_no_sort_key():
    # a theory is a cache key (derived_split): hashing it must not keep a
    # second, nested copy of its Lagrangian alive
    from ktphase.cli import parse_theory
    t = parse_theory(TH._builtin_data("pc4", "theories_data/pc4.theory"))
    hash(t)
    assert hash(t.lagrangian) == hash(TH.builtin("pc4").lagrangian)
    assert t.lagrangian == TH.builtin("pc4").lagrangian
    assert t.lagrangian._key is None
