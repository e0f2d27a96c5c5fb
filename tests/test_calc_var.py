"""Variational pipeline: variation, IBP split, vertical differential,
boundary restriction, constraint extraction."""

import dataclasses
import random
from fractions import Fraction

import pytest

from ktphase import calc_var as CV
from ktphase import expr as E
from ktphase import theories as TH
from ktphase.calc_var import (
    FieldDecl,
    LocalVarForm,
    TheorySpec,
    boundary_restrict,
    constraint_extract,
    form_total_derivative,
    ibp_split,
    reconstruction_defect,
    variation,
    verify_chart,
    vertical_delta,
)
from ktphase.errors import DegreeError, ParseError

from em_oracle import em_by_hand


@pytest.fixture(scope="module")
def mech():
    return TH.builtin("mechanics")


@pytest.fixture(scope="module")
def scalar():
    return TH.builtin("scalar")


@pytest.fixture(scope="module")
def em():
    return TH.builtin("em")


# ---------------------------------------------------------------------------
# variation
# ---------------------------------------------------------------------------

def test_variation_mechanics(mech):
    ctx = mech.context()
    var = variation(mech)
    terms = {gens[0].key: E.to_text(c, ctx) for gens, c in var.terms}
    assert terms == {("q", (), ()): "-V'(q)", ("q", (), (0,)): "m*q'"}


def test_variation_scalar_signature(scalar):
    ctx = scalar.context()
    var = variation(scalar)
    terms = {gens[0].key: c for gens, c in var.terms}
    # kinetic term carries the time-like metric sign
    assert terms[("phi", (), (0,))] == E.parse("-phi'*rh", ctx)
    assert terms[("phi", (), (1,))] == E.parse("hinv[1,1]*d[1]phi*rh", ctx)


def test_variation_of_zero_lagrangian(mech):
    t = TheorySpec(name="null", dim=1, coords=("t",), transversal=0,
                   fields=(FieldDecl("q"),), lagrangian=E.ZERO, vdim=1)
    assert variation(t).is_zero()


def test_variation_skips_backgrounds(scalar):
    var = variation(scalar)
    for gens, _ in var.terms:
        assert gens[0].field == "phi"


# ---------------------------------------------------------------------------
# ibp_split
# ---------------------------------------------------------------------------

def test_split_mechanics(mech):
    ctx = mech.context()
    split = ibp_split(variation(mech), mech)
    ((w, el),) = split.el
    assert w.key == ("q", (), ())
    assert el == E.parse("m*q'' + V'(q)", ctx)
    assert split.alpha.to_text(ctx) == "m*v δ(q)"
    assert split.side == 1
    assert split.divergences == ()


def test_split_length_is_normalized_velocity_pairing():
    t = TH.builtin("length")
    ctx = t.context()
    split = ibp_split(variation(t), t)
    speed = E.parse("sqrt(q0[0]^2 + q0[1]^2 + q0[2]^2)", _length_boundary_ctx())
    for gens, c in split.alpha.terms:
        i = gens[0].comp[0]
        # u_i = q0_i / ||q0||
        assert c * speed == E.parse(f"q0[{i}]", _length_boundary_ctx())
    # field equation is the total derivative of the normalized velocity
    el = dict(split.el)
    v1 = ctx.jetvar("q", (1,), 0, ())
    s = E.parse("sqrt(q[0]'^2 + q[1]'^2 + q[2]'^2)", ctx)
    direct = E.total_derivative(E.parse("q[1]'", ctx) / s, 0)
    assert el[v1] == direct


def _length_boundary_ctx():
    ctx = E.Context(coords=("t",), transversal=0)
    ctx.declare_field("q", (3,))
    ctx.declare_field("q0", (3,))
    ctx.declare_function("sqrt")
    return ctx


def test_split_em_alpha_is_electric_pairing(em):
    # alpha = h^{ij} F_{0i} delta A_j sqrt(h) with F written in preboundary
    # symbols: substituting the momentum definitions reproduces it exactly
    split = ibp_split(variation(em), em)
    verify_chart(TH.chart("em"), split)


def test_split_reconstruction_identity(mech, scalar, em):
    for t in (mech, scalar, em, TH.builtin("length")):
        split = ibp_split(variation(t), t)
        assert reconstruction_defect(split).is_zero()


@pytest.mark.parametrize("name", ["mechanics", "pc4"])
def test_reconstruction_defect_detects_a_broken_split(name):
    # the identity compares the split with its own stored variation; a split
    # missing a field equation, or with a doubled boundary density, fails it
    split = TH.derived_split(name)
    assert reconstruction_defect(split).is_zero()
    dropped = dataclasses.replace(split, el=split.el[1:])
    doubled = dataclasses.replace(split, alpha_density=split.alpha_density.scale(2))
    for broken in (dropped, doubled):
        assert not reconstruction_defect(broken).is_zero()


def test_split_idempotent(mech, scalar):
    # re-splitting the el part yields the same el and no boundary term
    for t in (mech, scalar):
        split = ibp_split(variation(t), t)
        again = ibp_split(LocalVarForm(1, [((w,), -c) for w, c in split.el]), t)
        assert again.el == split.el
        assert again.alpha.is_zero()
        assert again.divergences == ()


def test_divergence_shift_invariance(scalar):
    # adding a tangential total divergence to the Lagrangian leaves the field
    # equations unchanged and shifts alpha by a vertical differential of a
    # degree-0 boundary term
    rng = random.Random(3)
    ctx = scalar.context()
    for _ in range(5):
        c2 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        g = E.parse("phi^2*d[1]phi", ctx) * c2 + E.parse("phi", ctx) * rng.randint(-3, 3)
        shifted = TheorySpec(
            name="scalar_shifted", dim=scalar.dim, coords=scalar.coords,
            transversal=scalar.transversal, fields=scalar.fields,
            backgrounds=scalar.backgrounds, functions=scalar.functions,
            lagrangian=scalar.lagrangian + E.total_derivative(g, 1, scalar.jet_order),
            jet_order=scalar.jet_order, vdim=scalar.vdim,
            boundary_side=scalar.boundary_side)
        s0 = ibp_split(variation(scalar), scalar)
        s1 = ibp_split(variation(shifted), shifted)
        assert s0.el == s1.el
        assert s1.alpha == s0.alpha  # tangential shifts never touch alpha


def test_transversal_shift_changes_alpha_by_exact_term(scalar):
    # a transversal total derivative shifts alpha by the vertical differential
    # of the boundary-restricted generator
    ctx = scalar.context()
    g = E.parse("phi^3", ctx) * Fraction(1, 3)
    shifted = TheorySpec(
        name="scalar_tshift", dim=scalar.dim, coords=scalar.coords,
        transversal=scalar.transversal, fields=scalar.fields,
        backgrounds=scalar.backgrounds, functions=scalar.functions,
        lagrangian=scalar.lagrangian + E.total_derivative(g, 0, scalar.jet_order),
        jet_order=scalar.jet_order, vdim=scalar.vdim,
        boundary_side=scalar.boundary_side)
    s0 = ibp_split(variation(scalar), scalar)
    s1 = ibp_split(variation(shifted), shifted)
    assert s0.el == s1.el
    delta_g = vertical_delta(LocalVarForm.scalar(boundary_restrict(g, scalar)))
    want = s0.alpha + delta_g.scale(E.Expr.const(scalar.boundary_side))
    assert s1.alpha == want


# ---------------------------------------------------------------------------
# vertical_delta
# ---------------------------------------------------------------------------

def test_vertical_delta_mechanics_omega(mech):
    ctx = mech.context()
    split = ibp_split(variation(mech), mech)
    omega = vertical_delta(split.alpha)
    assert omega.to_text(ctx) == "(-m) δ(q)^δ(v)"


def test_vertical_delta_nilpotent_on_degree_zero_and_one():
    for name in TH.THEORY_NAMES:
        t = TH.builtin(name)
        d1 = vertical_delta(LocalVarForm.scalar(t.lagrangian))
        assert vertical_delta(d1).is_zero()
        split = TH.derived_split(name)
        # degree-2 forms reject a further differential
        with pytest.raises(DegreeError):
            vertical_delta(vertical_delta(split.alpha))


def test_vertical_delta_degree_overflow(mech):
    split = ibp_split(variation(mech), mech)
    omega = vertical_delta(split.alpha)
    with pytest.raises(DegreeError):
        vertical_delta(omega)


def test_pc_omega_density_structure():
    # the coframe-gravity boundary 2-form pairs coframe and connection
    # variations with single-coframe coefficients (the e de dw density)
    t = TH.builtin("pc4")
    split = TH.derived_split("pc4")
    omega = vertical_delta(split.alpha)
    assert omega.degree == 2
    for gens, coeff in omega.terms:
        fields = sorted(g.field for g in gens)
        assert fields == ["e", "omega"]
        for v in coeff.jet_vars():
            assert v.field == "e"


# ---------------------------------------------------------------------------
# boundary_restrict
# ---------------------------------------------------------------------------

def test_boundary_restrict_renames_transversal_jets(scalar):
    ctx = scalar.context()
    e = E.parse("phi' + d[1]phi", ctx)
    r = boundary_restrict(e, scalar)
    keys = sorted(v.key for v in r.jet_vars())
    assert keys == [("phi", (), (1,)), ("phi0", (), ())]


def test_boundary_restrict_tangential_unchanged(scalar):
    ctx = scalar.context()
    e = E.parse("d[1]phi^2 + phi", ctx)
    assert boundary_restrict(e, scalar) == e


def test_boundary_restrict_higher_order(scalar):
    ctx = scalar.context()
    e = E.parse("phi''", ctx)
    (v,) = boundary_restrict(e, scalar).jet_vars()
    assert v.key == ("phi00", (), ())


def test_boundary_restrict_drops_transversal_dependence(scalar):
    ctx = scalar.context()
    r = boundary_restrict(E.parse("phi'", ctx), scalar)
    (v,) = r.jet_vars()
    assert not v.meta.depends_on(0)
    assert E.total_derivative(r, 0).is_zero()


def test_boundary_restrict_gives_each_metadata_its_own_image(scalar):
    # two variables of one key, one declared positive: the image of each is
    # remembered apart, so neither takes the other's metadata
    plain = E.JetVar("phi", (), (1,), E.SymbolMeta())
    positive = E.JetVar("phi", (), (1,), E.SymbolMeta(positive=True, excluded={1}))
    for first, second in ((plain, positive), (positive, plain)):
        form = boundary_restrict(LocalVarForm(1, [((first,), E.Expr.var(second))]), scalar)
        ((gen,), coeff), = form.terms
        (var,) = coeff.jet_vars()
        assert gen == var and gen is not var
        for src, img in ((first, gen), (second, var)):
            assert img.meta.positive == src.meta.positive
            assert img.meta.excluded == src.meta.excluded | {0}
    e = E.Expr.var(plain) * E.sqrt(E.Expr.var(positive))
    ((((v, _),), (((_, _, arg), _),)), _), = boundary_restrict(e, scalar).terms
    assert not v.meta.positive and arg.jet_vars()[0].meta.positive


# ---------------------------------------------------------------------------
# constraint_extract
# ---------------------------------------------------------------------------

def test_constraints_em_gauss_only(em):
    ctx = em.context()
    split = ibp_split(variation(em), em)
    cons = constraint_extract(em, split)
    assert [n for n, _ in cons] == ["A[0]"]
    # the density is exactly the divergence of the electric flux: compare
    # against the hand-built Gauss density, in preboundary symbols
    _, gauss, _ = em_by_hand(em)
    declared = E.substitute(gauss, TH.chart("em").momenta_map(), em.jet_order + 1)
    assert cons[0][1] == declared


def test_constraints_scalar_empty(scalar):
    assert constraint_extract(scalar) == []


def test_constraints_mechanics_and_length_empty(mech):
    assert constraint_extract(mech) == []
    assert constraint_extract(TH.builtin("length")) == []


def test_constraints_pc4_families():
    t = TH.builtin("pc4")
    cons = constraint_extract(t, TH.derived_split("pc4"))
    names = [n for n, _ in cons]
    assert names == ["e[0,0]", "e[1,0]", "e[2,0]", "e[3,0]",
                     "omega[0,1,0]", "omega[0,2,0]", "omega[0,3,0]",
                     "omega[1,2,0]", "omega[1,3,0]", "omega[2,3,0]"]
    # densities live on the slice: only tangential jets of chart fields
    for _, d in cons:
        for v in d.jet_vars():
            assert 0 not in v.deriv
            if not v.meta.background:
                assert v.comp[-1] in (1, 2, 3)


def _constraint_extract_reference(t, split):
    # every field equation restricted, then kept when the restricted density
    # holds no symbol outside the boundary 1-form (backgrounds aside)
    allowed = CV._alpha_symbols(split)
    out = []
    for w, density in split.el:
        restricted = boundary_restrict(density, t)
        if all(u.meta.background or u.field in allowed for u in restricted.jet_vars()):
            out.append((CV._component_name(w), restricted))
    return out


@pytest.mark.parametrize("name", TH.THEORY_NAMES)
def test_constraint_extract_matches_restricting_every_equation(name):
    t = TH.builtin(name)
    split = ibp_split(variation(t), t)
    got = constraint_extract(t, split)
    want = _constraint_extract_reference(t, split)
    assert got == want
    # the same symbols with the same metadata
    meta = lambda cons: [[(v.key, repr(v.meta)) for v in d.jet_vars()] for _, d in cons]
    assert meta(got) == meta(want)


def test_form_total_derivative_leibniz(mech):
    ctx = mech.context()
    c = E.parse("m*q'", ctx)
    q, q1 = ctx.jetvar("q", (), 0, ()), ctx.jetvar("q", (), 1, ())
    form = LocalVarForm(1, [((q,), c)])
    d = form_total_derivative(form, 0, mech.jet_order)
    want = LocalVarForm(1, [((q,), E.parse("m*q''", ctx)), ((q1,), c)])
    assert d == want


# ---------------------------------------------------------------------------
# TheorySpec validation
# ---------------------------------------------------------------------------

def test_spec_rejects_undeclared_symbol():
    ctx = E.Context(coords=("t",))
    ctx.declare_field("q")
    ctx.declare_field("w")
    L = E.parse("q*w", ctx)
    with pytest.raises(ParseError):
        TheorySpec(name="bad", dim=1, coords=("t",), transversal=0,
                   fields=(FieldDecl("q"),), lagrangian=L, vdim=1)


def test_spec_rejects_excess_jet_order():
    q4 = E.Expr.var(E.JetVar("q", (), (0, 0, 0, 0)))
    with pytest.raises(ParseError):
        TheorySpec(name="bad", dim=1, coords=("t",), transversal=0,
                   fields=(FieldDecl("q"),), lagrangian=q4, jet_order=3, vdim=1)


def test_spec_rejects_duplicate_names():
    with pytest.raises(ParseError):
        TheorySpec(name="bad", dim=1, coords=("t",), transversal=0,
                   fields=(FieldDecl("q"), FieldDecl("q")), vdim=1)


def test_a_chart_and_its_forms_hash_their_expressions_once(monkeypatch):
    # lattice caches are keyed by chart: a second hash reads no expression
    chart = dataclasses.replace(TH.chart("pc4"))
    form = LocalVarForm(1, chart.alpha.terms)
    calls = []
    expr_hash = E.Expr.__hash__
    monkeypatch.setattr(E.Expr, "__hash__", lambda e: calls.append(e) or expr_hash(e))
    for x in (form, chart):
        first = hash(x)
        assert calls
        calls.clear()
        assert hash(x) == first and not calls
    assert chart == TH.chart("pc4") and hash(chart) == hash(TH.chart("pc4"))
