"""Expression kernel: normal form, derivatives, evaluation, grammar."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ktphase import expr as E
from ktphase import lattice as L
from ktphase.calc_var import LocalVarForm, vertical_delta
from ktphase.errors import (
    DomainError,
    OrderLimitError,
    ParseError,
    ResourceLimitError,
    UnboundVariableError,
    UndeclaredSymbolError,
)


@pytest.fixture
def mech_ctx():
    ctx = E.Context(coords=("t",), transversal=0)
    ctx.declare_field("q")
    ctx.declare_field("m", meta=E.SymbolMeta(background=True, constant=True, positive=True))
    ctx.declare_function("V")
    return ctx


@pytest.fixture
def vec_ctx():
    ctx = E.Context(coords=("t",), transversal=0)
    ctx.declare_field("q", (3,))
    ctx.declare_function("sqrt")
    return ctx


def rational_points(ctx, e, rng, positive=False):
    point = {}
    for v in e.jet_vars():
        num = rng.randint(1, 9) if positive else rng.randint(-9, 9) or 1
        point[v] = Fraction(num, rng.randint(1, 7))
    return point


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_ring_identity_cancellation(mech_ctx):
    q = E.parse("q", mech_ctx)
    assert (q + q - 2 * q).is_zero()


def test_dot_product_expands_in_fixed_order(vec_ctx):
    e = E.parse("q[0]'*q[0]' + q[1]'*q[1]' + q[2]'*q[2]'", vec_ctx)
    assert len(e.terms) == 3
    assert E.to_text(e, vec_ctx) == "q[0]'^2 + q[1]'^2 + q[2]'^2"


def test_sqrt_square_simplifies_for_positive_symbol():
    ctx = E.Context(coords=("t",))
    ctx.declare_field("x", meta=E.SymbolMeta(positive=True))
    ctx.declare_function("sqrt")
    e = E.parse("1/2*sqrt(x)^2", ctx)
    assert e == E.parse("1/2*x", ctx)
    # derived check: the rule agrees with direct numeric evaluation of the
    # unnormalized tree (float sqrt, so compare numerically)
    import math
    rng = random.Random(2024)
    raw = E.parse_expr("1/2*sqrt(x)^2", ctx)
    for _ in range(20):
        pt = {ctx.jetvar("x", (), 0, ()): Fraction(rng.randint(1, 50), rng.randint(1, 9))}
        assert math.isclose(float(E.evaluate(e, pt)), float(E.eval_ast(raw, ctx, pt)),
                            rel_tol=1e-12)


def test_sqrt_square_not_simplified_without_positivity():
    ctx = E.Context(coords=("t",))
    ctx.declare_field("x")
    ctx.declare_function("sqrt")
    e = E.parse("sqrt(x)^2", ctx)
    assert E.to_text(e, ctx) == "sqrt(x)^2"


def test_sqrt_square_of_a_derivative_of_a_positive_symbol_stays():
    # q > 0 says nothing of the sign of q' or d[1]q: folding sqrt(q')^2 to
    # q' would evaluate to -4 at q' = -4
    ctx = E.Context(coords=("t", "x"))
    ctx.declare_field("q", meta=E.SymbolMeta(positive=True))
    ctx.declare_function("sqrt")
    for text in ("sqrt(q')^2", "sqrt(d[1]q)^2"):
        assert E.to_text(E.parse(text, ctx), ctx) == text
    assert E.to_text(E.parse("sqrt(q)^2", ctx), ctx) == "q"


def test_sum_of_squares_argument_is_certified(vec_ctx):
    # ||q'||^2 folds because the argument is structurally nonnegative
    s = E.parse("sqrt(q[0]'^2 + q[1]'^2 + q[2]'^2)", vec_ctx)
    sq = s * s
    assert sq == E.parse("q[0]'^2 + q[1]'^2 + q[2]'^2", vec_ctx)


def test_normalize_idempotent(mech_ctx):
    e = E.parse("(q + 1)^3 - V(q)*q", mech_ctx)
    assert E.normalize(e) == e
    assert E.normalize(E.normalize(e)) == E.normalize(e)


def test_coefficient_bit_limit():
    big = Fraction(1 << (E.MAX_COEFF_BITS + 8), 3)
    with pytest.raises(ResourceLimitError):
        E.Expr.const(big)


# ---------------------------------------------------------------------------
# diff_jet
# ---------------------------------------------------------------------------

def test_diff_jet_polynomial_rule(mech_ctx):
    L = E.parse("1/2*m*q'^2", mech_ctx)
    v = mech_ctx.jetvar("q", (), 1, ())
    assert E.diff_jet(L, v) == E.parse("m*q'", mech_ctx)


def test_diff_jet_normalized_velocity(vec_ctx):
    s = E.parse("sqrt(q[0]'^2 + q[1]'^2 + q[2]'^2)", vec_ctx)
    v1 = vec_ctx.jetvar("q", (1,), 1, ())
    got = E.diff_jet(s, v1)
    expected = E.parse("q[1]'", vec_ctx) / s
    assert got == expected


def test_diff_jet_opaque_potential(mech_ctx):
    L = E.parse("V(q)", mech_ctx)
    got = E.diff_jet(L, mech_ctx.jetvar("q", (), 0, ()))
    assert E.to_text(got, mech_ctx) == "V'(q)"


def test_diff_jet_absent_variable_is_zero(mech_ctx):
    L = E.parse("1/2*m*q'^2", mech_ctx)
    assert E.diff_jet(L, mech_ctx.jetvar("q", (), 2, ())).is_zero()


def test_diff_jet_linear(mech_ctx):
    a = E.parse("q^3 + V(q)", mech_ctx)
    b = E.parse("m*q*q'", mech_ctx)
    v = mech_ctx.jetvar("q", (), 0, ())
    assert E.diff_jet(a + b, v) == E.diff_jet(a, v) + E.diff_jet(b, v)


# ---------------------------------------------------------------------------
# total_derivative
# ---------------------------------------------------------------------------

def test_total_derivative_chain(mech_ctx):
    e = E.parse("q'^2", mech_ctx)
    assert E.total_derivative(e, 0) == E.parse("2*q'*q''", mech_ctx)


def test_total_derivative_of_constant(mech_ctx):
    assert E.total_derivative(E.parse("m", mech_ctx), 0).is_zero()
    assert E.total_derivative(E.Expr.const(7), 0).is_zero()


def test_total_derivative_order_limit(mech_ctx):
    e = E.parse("q'''", mech_ctx)
    with pytest.raises(OrderLimitError):
        E.total_derivative(e, 0, max_order=3)


def test_total_derivatives_commute():
    ctx = E.Context(coords=("x0", "x1", "x2"), transversal=0)
    ctx.declare_field("phi")
    e = E.parse("phi^3 + phi*d[1]phi + d[2]phi^2", ctx)
    for i in range(3):
        for j in range(3):
            lhs = E.total_derivative(E.total_derivative(e, i), j)
            rhs = E.total_derivative(E.total_derivative(e, j), i)
            assert lhs == rhs


def test_length_el_from_total_derivative(vec_ctx):
    # d/dt of a normalized-velocity component expands to the geodesic-type
    # left-hand side; all terms carry the expected inverse-speed powers
    s = E.parse("sqrt(q[0]'^2 + q[1]'^2 + q[2]'^2)", vec_ctx)
    u1 = E.parse("q[1]'", vec_ctx) / s
    el = E.total_derivative(u1, 0)
    # inverse odd powers of the speed stay unfolded; build them as s**(-3)
    direct = (E.parse("q[1]''", vec_ctx) / s
              - E.parse("q[1]'", vec_ctx)
              * E.parse("q[0]'*q[0]'' + q[1]'*q[1]'' + q[2]'*q[2]''", vec_ctx) * s ** (-3))
    assert el == direct


def test_prolongation_identity(vec_ctx):
    # d/dv' (D_t e) = d e/d v + D_t (d e/d v') on polynomial expressions,
    # checked by exact evaluation at 20 random rational points
    ctx = vec_ctx
    e = E.parse("q[0]*q[1]' + q[2]'^2*q[0]'", ctx)
    v0 = ctx.jetvar("q", (0,), 0, ())
    v1 = ctx.jetvar("q", (0,), 1, ())
    lhs = E.diff_jet(E.total_derivative(e, 0), v1)
    rhs = E.diff_jet(e, v0) + E.total_derivative(E.diff_jet(e, v1), 0)
    rng = random.Random(7)
    for _ in range(20):
        pt = {}
        for w in (lhs - rhs).jet_vars() + lhs.jet_vars() + rhs.jet_vars():
            pt.setdefault(w, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        assert E.evaluate(lhs, pt) == E.evaluate(rhs, pt)


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_exact(mech_ctx):
    pt = {mech_ctx.jetvar("m", (), 0, ()): Fraction(2),
          mech_ctx.jetvar("q", (), 1, ()): Fraction(3)}
    assert E.evaluate(E.parse("m*q'^2", mech_ctx), pt) == 18


def test_evaluate_zero_expression(mech_ctx):
    assert E.evaluate(E.ZERO, {}) == 0


def test_evaluate_unbound(mech_ctx):
    with pytest.raises(UnboundVariableError):
        E.evaluate(E.parse("q", mech_ctx), {})
    for m in (Fraction(2), 2.0, np.full(3, 2.0)):
        with pytest.raises(UnboundVariableError):
            E.evaluate(E.parse("m*q", mech_ctx), {mech_ctx.jetvar("m", (), 0, ()): m})


def test_evaluate_sqrt_negative():
    ctx = E.Context(coords=("t",))
    ctx.declare_field("x")
    ctx.declare_function("sqrt")
    e = E.parse("sqrt(x)", ctx)
    for x in (Fraction(-4), -4.0):
        with pytest.raises(DomainError):
            E.evaluate(e, {ctx.jetvar("x", (), 0, ()): x})


def _run_lowered(e, point, fns):
    """``e`` run as a lattice kernel (``lattice.Lowered``) over the values of
    ``point``, broadcast together, with numpy's sqrt."""
    low = L.Lowered((e,))
    values = [point[v] for v in low.cols]
    table = np.empty((low.nrows,) + np.broadcast_shapes(*(np.shape(x) for x in values)))
    for row, x in enumerate(values, 1):
        table[row] = x
    return low.run(table, {("sqrt", 0): np.sqrt, **fns})[0]


@pytest.mark.parametrize("src", [
    "m*q'^2 - 3/7*q + 2",
    "q^-2 - 1/3*q*q'",
    "sqrt(q^2 + m)*q' + V(q)",
    "5/3",
])
def test_evaluate_arrays_elementwise(src):
    # signed powers of two keep every product exact, so the lattice kernel
    # over arrays and the exact walk over floats must agree bit for bit
    ctx = E.Context(coords=("t",))
    ctx.declare_field("q")
    ctx.declare_field("m", meta=E.SymbolMeta(background=True, constant=True, positive=True))
    ctx.declare_function("V")
    ctx.declare_function("sqrt")
    e = E.parse(src, ctx)
    rng = np.random.default_rng(3)
    dyadic = [s * 2.0 ** k for s in (-1, 1) for k in range(-2, 3)]
    arrays = {ctx.jetvar("q", (), 0, ()): rng.choice(dyadic, 6),
              ctx.jetvar("q", (), 1, ()): rng.choice(dyadic, 6),
              ctx.jetvar("m", (), 0, ()): np.abs(rng.choice(dyadic, 6))}
    cube = {("V", 0): lambda x: x ** 3}
    out = np.broadcast_to(_run_lowered(e, arrays, cube), (6,))
    assert out.dtype == np.float64
    for k in range(6):
        scalar = E.evaluate(e, {v: float(a[k]) for v, a in arrays.items()}, cube)
        # the walk stays exact where no float enters it: the constant
        assert isinstance(scalar, float if e.jet_vars() else Fraction)
        assert out[k] == float(scalar)


def test_evaluate_sqrt_exact_on_perfect_squares():
    ctx = E.Context(coords=("t",))
    ctx.declare_field("x")
    ctx.declare_function("sqrt")
    e = E.parse("sqrt(x)", ctx)
    val = E.evaluate(e, {ctx.jetvar("x", (), 0, ()): Fraction(9, 4)})
    assert val == Fraction(3, 2) and isinstance(val, Fraction)


def test_evaluate_normalize_against_raw_tree_oracle(vec_ctx):
    # oracle: direct recursive evaluation of the unnormalized parse tree
    src = "(q[0]' + q[1]')^2 - q[0]'^2 - 2*q[0]'*q[1]' + sqrt(q[2]'^2*q[2]'^2)"
    ast = E.parse_expr(src, vec_ctx)
    e = E.ast_to_expr(ast, vec_ctx)
    rng = random.Random(11)
    for _ in range(20):
        pt = {vec_ctx.jetvar("q", (i,), 1, ()): Fraction(rng.randint(-9, 9), rng.randint(1, 5))
              for i in range(3)}
        assert E.evaluate(e, pt) == E.eval_ast(ast, vec_ctx, pt)


# ---------------------------------------------------------------------------
# grammar
# ---------------------------------------------------------------------------

def test_parse_indexed_and_derivative_forms():
    ctx = E.Context(coords=("x0", "x1"), transversal=0)
    ctx.declare_field("e", (4, 2))
    ctx.declare_field("phi")
    v = E.parse("d[1]e[3,1]'", ctx)
    ((mono, coeff),) = v.terms
    (jv, exp), = mono[0]
    assert jv.key == ("e", (3, 1), (0, 1)) and exp == 1
    v2 = E.parse("d[x1]phi", ctx)
    assert v2.jet_vars()[0].key == ("phi", (), (1,))


def test_parse_errors():
    ctx = E.Context(coords=("t",))
    ctx.declare_field("q")
    with pytest.raises(UndeclaredSymbolError):
        E.parse("q + w", ctx)
    with pytest.raises(ParseError):
        E.parse("q +", ctx)
    with pytest.raises(ParseError):
        E.parse("q ^ q", ctx)
    with pytest.raises(ParseError):
        E.parse("q[1]", ctx)


def test_render_parse_round_trip(vec_ctx):
    src = "2*q[0]*q[1]'^3 - 1/3*sqrt(q[0]'^2 + q[1]'^2 + q[2]'^2) + 5"
    e = E.parse(src, vec_ctx)
    text = E.to_text(e, vec_ctx)
    assert E.parse(text, vec_ctx) == e
    assert E.to_text(E.parse(text, vec_ctx), vec_ctx) == text


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_PCTX = E.Context(coords=("x0", "x1"), transversal=0)
_PCTX.declare_field("a")
_PCTX.declare_field("b")
_VARS = [_PCTX.jetvar("a", (), 0, ()), _PCTX.jetvar("b", (), 0, ()),
         _PCTX.jetvar("a", (), 1, ()), _PCTX.jetvar("b", (), 0, (1,))]


@st.composite
def small_exprs(draw):
    n = draw(st.integers(1, 4))
    e = E.ZERO
    for _ in range(n):
        c = Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 4)))
        term = E.Expr.const(c)
        for v in draw(st.lists(st.sampled_from(_VARS), max_size=3)):
            term = term * E.Expr.var(v)
        e = e + term
    return e


@settings(max_examples=60, deadline=None)
@given(small_exprs(), small_exprs())
def test_normalize_is_additive_fixpoint(x, y):
    assert E.normalize(x + y) == E.normalize(E.normalize(x) + E.normalize(y))
    assert E.normalize(x * y) == E.normalize(E.normalize(x) * E.normalize(y))


@settings(max_examples=40, deadline=None)
@given(small_exprs())
def test_total_derivative_commutes_property(e):
    d01 = E.total_derivative(E.total_derivative(e, 0, 4), 1, 4)
    d10 = E.total_derivative(E.total_derivative(e, 1, 4), 0, 4)
    assert d01 == d10


@settings(max_examples=40, deadline=None)
@given(small_exprs())
def test_evaluate_after_normalize(e):
    rng = random.Random(5)
    pt = {v: Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for v in e.jet_vars()}
    for v in _VARS:
        pt.setdefault(v, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    assert E.evaluate(E.normalize(e), pt) == E.evaluate(e, pt)


# the lattice's lowered float kernel against the exact walk: constants, the
# zero expression, negative exponents, sqrt and one opaque function
_LCTX = E.Context(coords=("x0", "x1"), transversal=0)
for _name in ("a", "b", "c"):
    _LCTX.declare_field(_name)
_LVARS = [_LCTX.jetvar("a", (), 0, ()), _LCTX.jetvar("b", (), 0, ()),
          _LCTX.jetvar("a", (), 1, ()), _LCTX.jetvar("c", (), 0, (1,))]
# rational on rationals, so the exact walk stays exact
_LFNS = {("f", 0): lambda x: x * x * x - x / 3 + 1}


@st.composite
def lowered_cases(draw):
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        term = E.Expr.const(Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 5))))
        for v in draw(st.lists(st.sampled_from(_LVARS), max_size=3)):
            term = term * E.Expr.var(v) ** draw(st.integers(-2, 3))
        kind = draw(st.sampled_from(["none", "sqrt", "f"]))
        if kind != "none":
            inner = E.Expr.var(draw(st.sampled_from(_LVARS)))
            arg = inner * inner + Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
            fn = E.sqrt(arg) if kind == "sqrt" else E.apply_fn("f", 0, arg)
            term = term * fn ** draw(st.integers(-1, 2))
        terms.append(term)
    point = {v: Fraction(draw(st.sampled_from([-1, 1])) * draw(st.integers(1, 9)),
                         draw(st.integers(1, 7))) for v in _LVARS}
    return E.esum(terms), point


@settings(max_examples=80, deadline=None)
@given(lowered_cases())
def test_lowered_evaluation_matches_the_exact_walk(case):
    e, point = case
    exact = E.evaluate(e, point, _LFNS)
    lowered = _run_lowered(e, {v: float(x) for v, x in point.items()}, _LFNS)
    # relative to the size of the terms, so cancellation between them is fair
    scale = sum(abs(float(E.evaluate(E.Expr((term,)), point, _LFNS))) for term in e.terms)
    assert abs(float(lowered) - float(exact)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(lowered_cases(), lowered_cases())
def test_equality_and_hash_agree_with_the_sort_key(x, y):
    (a, _), (b, _) = x, y
    for p, q in ((a, b), (a + b, b + a), (a * b, b * a), (a, E.normalize(a)), (a, b - b + a)):
        assert (p == q) == (p.sort_key() == q.sort_key())
        if p == q:
            assert hash(p) == hash(q)


# ---------------------------------------------------------------------------
# one-walk derivative, renaming and substitution against the product-built
# references they replaced
# ---------------------------------------------------------------------------

def _diff_jet_reference(e, v):
    # one walk per variable, as diff_jet ran before it read gradient
    acc = {}

    def _add(expr):
        for m, c in expr.terms:
            acc[m] = acc.get(m, Fraction(0)) + c

    for (vars_, fns), coeff in e.terms:
        for i, (w, ex) in enumerate(vars_):
            if w == v:
                rest = vars_[:i] + ((w, ex - 1),) + vars_[i + 1:] if ex != 1 else vars_[:i] + vars_[i + 1:]
                _add(E.Expr((((rest, fns), coeff * ex),)))
        for i, ((name, order, arg), ex) in enumerate(fns):
            darg = _diff_jet_reference(arg, v)
            if darg.is_zero():
                continue
            rest = fns[:i] + (((name, order, arg), ex - 1),) + fns[i + 1:] if ex != 1 else fns[:i] + fns[i + 1:]
            partial = E.Expr((((vars_, rest), coeff * ex),))
            _add(partial * E._fn_factor_derivative(name, order, arg) * darg)
    return E._resimplify(acc)


def _total_derivative_reference(e, coord, max_order=E.DEFAULT_MAX_JET_ORDER):
    # its own Leibniz and chain-rule walk, as total_derivative ran before it
    # was the chain rule over gradient
    acc = {}

    def _add(expr):
        for m, c in expr.terms:
            acc[m] = acc.get(m, Fraction(0)) + c

    for (vars_, fns), coeff in e.terms:
        for i, (w, ex) in enumerate(vars_):
            if not w.meta.depends_on(coord):
                continue
            rest = vars_[:i] + ((w, ex - 1),) + vars_[i + 1:] if ex != 1 else vars_[:i] + vars_[i + 1:]
            bumped = w.with_deriv(coord, max_order)
            _add(E.Expr((((rest, fns), coeff * ex),)) * E.Expr.var(bumped))
        for i, ((name, order, arg), ex) in enumerate(fns):
            darg = _total_derivative_reference(arg, coord, max_order)
            if darg.is_zero():
                continue
            rest = fns[:i] + (((name, order, arg), ex - 1),) + fns[i + 1:] if ex != 1 else fns[:i] + fns[i + 1:]
            partial = E.Expr((((vars_, rest), coeff * ex),))
            _add(partial * E._fn_factor_derivative(name, order, arg) * darg)
    return E._resimplify(acc)


def _map_vars_reference(e, f):
    terms = []
    for (vars_, fns), coeff in e.terms:
        term = E.Expr.const(coeff)
        for v, ex in vars_:
            term = term * E.Expr.var(f(v)) ** ex
        for (name, order, arg), ex in fns:
            term = term * E.apply_fn(name, order, _map_vars_reference(arg, f)) ** ex
        terms.append(term)
    return E.esum(terms)


def _substitute_reference(e, images, max_order=E.DEFAULT_MAX_JET_ORDER):
    terms = []
    for (vars_, fns), coeff in e.terms:
        term = E.Expr.const(coeff)
        for v, ex in vars_:
            key = (v.field, v.comp)
            if key in images:
                if ex < 0:
                    raise ValueError(f"cannot substitute into negative power of {v.field}{v.comp}")
                img = images[key]
                for i in v.deriv:
                    img = E.total_derivative(img, i, max_order)
                term = term * img ** ex
            else:
                term = term * E.Expr.var(v) ** ex
        for (name, order, arg), ex in fns:
            term = term * E.apply_fn(name, order, _substitute_reference(arg, images, max_order)) ** ex
        terms.append(term)
    return E.esum(terms)


# dynamic, positive and background symbols, with jets along both coordinates
_GCTX = E.Context(coords=("x0", "x1"), transversal=0)
_GCTX.declare_field("a")
_GCTX.declare_field("b")
_GCTX.declare_field("p", meta=E.SymbolMeta(positive=True))
_GCTX.declare_field("m", meta=E.SymbolMeta(background=True, constant=True, positive=True))
_GVARS = [_GCTX.jetvar("a", (), 0, ()), _GCTX.jetvar("b", (), 0, ()), _GCTX.jetvar("a", (), 1, ()),
          _GCTX.jetvar("b", (), 0, (1,)), _GCTX.jetvar("p", (), 0, ()), _GCTX.jetvar("m", (), 0, ())]
# a renaming target outside the drawn expressions, declared positive so
# that sqrt factors of renamed arguments can fold
_GNEW = E.JetVar("r", (), (), E.SymbolMeta(positive=True))


@st.composite
def _monomials(draw, depth, exponents=(-2, 3), powers=(-2, 2)):
    term = E.Expr.const(Fraction(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 4))))
    for v in draw(st.lists(st.sampled_from(_GVARS), max_size=3)):
        term = term * E.Expr.var(v) ** draw(st.integers(*exponents).filter(bool))
    kind = draw(st.sampled_from(["none", "sqrt", "f"])) if depth else "none"
    if kind != "none":
        arg = draw(_sums(depth - 1, exponents, powers)) + Fraction(draw(st.integers(0, 3)))
        fn = E.sqrt(arg) if kind == "sqrt" else E.apply_fn("f", draw(st.integers(0, 1)), arg)
        term = term * fn ** draw(st.integers(*powers))
    return term


@st.composite
def _sums(draw, depth=2, exponents=(-2, 3), powers=(-2, 2)):
    return E.esum(draw(st.lists(_monomials(depth, exponents, powers), max_size=4)))


# The derivative walks sum raw partial terms and normalize the sums once, so
# their strategy draws function factors with powers from -3 to 3: a sqrt of
# an argument that is not certified nonnegative keeps any power, and one of
# a certified sum keeps its negative powers.  The examples hold such factors
# and powers that fold.
_A, _B, _DA, _P = (E.Expr.var(_GVARS[i]) for i in (0, 1, 2, 4))
_WIDE_SUMS = _sums(powers=(-3, 3))
_SQRT_EXAMPLES = (
    E.sqrt(_A) ** 3 * _B + E.sqrt(_A + _B) ** -2,
    _A * E.sqrt(_A * _A + 1) ** -3 - E.sqrt(_P) ** -1 * _DA,
    E.sqrt(_P * _A ** 2) ** 3 + E.apply_fn("f", 0, E.sqrt(_DA) ** -3 + _B) ** 2 * _A,
)


@settings(max_examples=50, deadline=None)
@given(_WIDE_SUMS)
@example(_SQRT_EXAMPLES[0])
@example(_SQRT_EXAMPLES[1])
@example(_SQRT_EXAMPLES[2])
def test_gradient_matches_the_single_variable_reference(e):
    grad = E.gradient(e)
    assert set(grad) <= set(e.jet_vars())
    for v in e.jet_vars():
        want = _diff_jet_reference(e, v)
        assert grad.get(v, E.ZERO) == want
        assert (v in grad) == (not want.is_zero())
        assert E.diff_jet(e, v) == want


# Both walks read the meta of each occurrence of a variable; the bumped
# variable of total_derivative carries the meta of its first occurrence, and
# the drawn variables carry one meta each, so the two agree here.
# d[0]a is at max_order 1 and its partial cancels: total_derivative still
# raises, as the term walk does
@settings(max_examples=50, deadline=None)
@given(_WIDE_SUMS, st.sampled_from([0, 1]), st.sampled_from([1, 2, 3]))
@example(-E.sqrt(2 * E.Expr.var(_GVARS[2]) ** 3) ** 2 + 2 * E.Expr.var(_GVARS[2]) ** 3, 0, 1)
@example(_SQRT_EXAMPLES[0], 1, 3)
@example(_SQRT_EXAMPLES[1], 0, 3)
@example(_SQRT_EXAMPLES[2], 1, 2)
def test_total_derivative_matches_the_walk_reference(e, coord, max_order):
    try:
        want = _total_derivative_reference(e, coord, max_order)
    except OrderLimitError:
        with pytest.raises(OrderLimitError):
            E.total_derivative(e, coord, max_order)
        return
    assert E.total_derivative(e, coord, max_order) == want


def _vertical_delta_reference(form):
    # term by term, as vertical_delta ran before it summed raw partials: each
    # coefficient's normalized gradient, regrouped, signed and summed per
    # generator tuple by the LocalVarForm constructor
    pairs = []
    for gens, c in form.terms:
        grad = E.gradient(c)
        pairs += (((w,) + gens, grad[w]) for w in c.jet_vars() if not w.meta.background and w in grad)
    return LocalVarForm(form.degree + 1, pairs)


@st.composite
def _forms(draw):
    # degree 0, or degree 1 over every drawn symbol (the background m
    # included): a coefficient holding its own generator gives a repeated
    # pair, and generators on either side of a new one give both signs
    if draw(st.booleans()):
        return LocalVarForm.scalar(draw(_WIDE_SUMS))
    gens = st.sampled_from(_GVARS).map(lambda v: (v,))
    return LocalVarForm(1, draw(st.lists(st.tuples(gens, _WIDE_SUMS), max_size=4)))


_M = E.Expr.var(_GVARS[5])


@settings(max_examples=60, deadline=None)
@given(_forms())
@example(LocalVarForm.scalar(_M * _A * _B * E.sqrt(_A * _A + _P) ** -3 + E.apply_fn("f", 1, _DA) * _B))
@example(LocalVarForm(1, [((_GVARS[0],), _A * _B * _M), ((_GVARS[1],), _A * E.sqrt(_A) ** 3),
                          ((_GVARS[2],), E.apply_fn("f", 0, _A * _DA) ** -1)]))
def test_vertical_delta_matches_the_per_term_reference(form):
    got = vertical_delta(form)
    assert got.terms == _vertical_delta_reference(form).terms
    if form.degree == 0:
        assert vertical_delta(got).is_zero()


def test_vertical_delta_signs_skips_and_sums_generator_pairs():
    a, b = _GVARS[0], _GVARS[1]
    # d(a b m) = b m da + a m db: the background m is not varied
    assert vertical_delta(LocalVarForm.scalar(_A * _B * _M)).terms == (((a,), _B * _M), ((b,), _A * _M))
    # d(a^2 b db) = 2ab da^db, d(b sqrt(a) da) = (b/2) a^-1/2 da^da (skipped) +
    # sqrt(a) db^da = -sqrt(a) da^db; one sum per pair
    form = LocalVarForm(1, [((b,), _A ** 2 * _B), ((a,), _B * E.sqrt(_A))])
    want = 2 * _A * _B - E.sqrt(_A)
    assert vertical_delta(form).terms == (((a, b), want),)
    assert vertical_delta(form) == _vertical_delta_reference(form)


@st.composite
def _generator_pairs(draw):
    gens = st.lists(st.sampled_from(_GVARS[:4]), min_size=2, max_size=2)
    return draw(st.lists(st.tuples(gens, _sums(1)), max_size=6))


@settings(max_examples=50, deadline=None)
@given(_generator_pairs())
def test_local_form_sums_repeated_generators_like_pairwise_addition(pairs):
    want = {}
    for gens, c in pairs:
        if gens[0] == gens[1]:
            continue
        key, c = (tuple(gens), c) if gens[0] < gens[1] else ((gens[1], gens[0]), -c)
        want[key] = want[key] + c if key in want else c
    form = LocalVarForm(2, pairs)
    assert form.terms == tuple((g, c) for g, c in sorted(want.items()) if not c.is_zero())


@st.composite
def _renamings(draw):
    pool = _GVARS + [_GNEW]
    images = {v: draw(st.sampled_from(pool)) for v in draw(st.lists(st.sampled_from(_GVARS), unique=True))}
    return lambda v: images.get(v, v)


@settings(max_examples=50, deadline=None)
@given(_sums(), _renamings())
def test_map_vars_matches_the_product_reference(e, f):
    assert E.map_vars(e, f) == _map_vars_reference(e, f)


def test_map_vars_merges_exponents_of_one_image():
    a, b = _GVARS[0], _GVARS[1]
    to_b = lambda v: b if v == a else v
    e = E.Expr.var(a) * E.Expr.var(b) ** -1 + 2 * E.Expr.var(a) ** 2 * E.Expr.var(b) + E.Expr.var(a)
    got = E.map_vars(e, to_b)
    # a/b -> b^0 = 1 and a^2 b -> b^3
    assert got == E.Expr.const(1) + 2 * E.Expr.var(b) ** 3 + E.Expr.var(b)
    assert got == _map_vars_reference(e, to_b)


@st.composite
def _substitutions(draw):
    keys = draw(st.lists(st.sampled_from([("a", ()), ("b", ()), ("p", ())]), unique=True))
    return {k: draw(_sums(1, (0, 2))) for k in keys}


@settings(max_examples=50, deadline=None)
@given(_sums(), _substitutions())
def test_substitute_matches_the_product_reference(e, images):
    try:
        want = _substitute_reference(e, images)
    except ValueError:
        with pytest.raises(ValueError):
            E.substitute(e, images)
        return
    assert E.substitute(e, images) == want


# ---------------------------------------------------------------------------
# the function-free path of the normal form against the general walks it
# bypasses
# ---------------------------------------------------------------------------

def _resimplify_reference(acc):
    # every monomial through the sqrt-folding loop, then every term sorted by
    # _mono_key: the normal form before function-free monomials bypassed both
    out = {}
    pending = [(m, c) for m, c in acc.items() if c != 0]
    while pending:
        mono, coeff = pending.pop()
        vars_, fns = mono
        for i, ((name, order, arg), ex) in enumerate(fns):
            k, r = divmod(ex, 2)
            if name != "sqrt" or order != 0 or k == 0 or not E._certified_nonneg(arg):
                continue
            if k < 0 and len(arg.terms) != 1:
                continue
            rest = fns[:i] + ((((name, order, arg), r),) if r else ()) + fns[i + 1:]
            pending.extend((E.Expr((((vars_, rest), coeff),)) * arg ** k).terms)
            break
        else:
            out[mono] = out.get(mono, Fraction(0)) + coeff
    items = [(m, c) for m, c in out.items() if c != 0]
    return E.Expr(tuple(sorted(items, key=lambda t: E._mono_key(t[0]))))


def _rewrite_reference(e, image):
    # every monomial rebuilt as an Expr and multiplied out, also one with no
    # expression image and no function factor
    acc = {}
    for (vars_, fns), coeff in e.terms:
        kept, factors = {}, []
        for v, ex in vars_:
            w = image(v, ex)
            if isinstance(w, E.JetVar):
                kept[w] = kept.get(w, 0) + ex
            else:
                factors.append(w)
        mono = (tuple(sorted(((w, ex) for w, ex in kept.items() if ex), key=lambda t: t[0].key)), ())
        term = E.Expr(((mono, coeff),))
        for factor in factors:
            term = term * factor
        for (name, order, arg), ex in fns:
            term = term * E.apply_fn(name, order, _rewrite_reference(arg, image)) ** ex
        for m, c in term.terms:
            acc[m] = acc.get(m, Fraction(0)) + c
    return _resimplify_reference(acc)


def _raw_product(x, y):
    # the unnormalized sums of x * y, as Expr.__mul__ hands them to _resimplify
    acc = {}
    for m1, c1 in x.terms:
        for m2, c2 in y.terms:
            m = E._mono_mul(m1, m2)
            acc[m] = acc.get(m, Fraction(0)) + c1 * c2
    return acc


_SQRT_P = E.sqrt(E.Expr.var(_GVARS[4]))
_FREE_OR_NOT = st.one_of(_sums(0), _sums())


# sums drawn at depth 0 have no function factor; sqrt(p) * sqrt(p) folds to p
@settings(max_examples=80, deadline=None)
@given(_FREE_OR_NOT, _FREE_OR_NOT)
@example(_SQRT_P + E.Expr.var(_GVARS[0]), _SQRT_P - E.Expr.var(_GVARS[1]))
def test_normal_form_matches_the_general_walk(x, y):
    acc = _raw_product(x, y)
    got = E._resimplify(dict(acc))
    assert got.terms == _resimplify_reference(acc).terms
    for e in (got, E.Expr._from_map(dict(acc))):
        keys = [E._mono_key(m) for m, _ in e.terms]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)


def test_from_map_orders_monomials_that_differ_only_in_function_factors():
    a = E.Expr.var(_GVARS[0])
    (small, _), = (a * E.apply_fn("f", 0, E.Expr.const(1))).terms
    (large, _), = (a * E.apply_fn("f", 0, E.Expr.const(2))).terms
    assert small[0] == large[0] and E._mono_key(small) < E._mono_key(large)
    got = E.Expr._from_map({large: Fraction(1), small: Fraction(-1)})
    assert got.terms == ((small, Fraction(-1)), (large, Fraction(1)))


@settings(max_examples=50, deadline=None)
@given(_FREE_OR_NOT, _renamings(), _substitutions())
def test_rewrite_matches_the_general_walk(e, f, images):
    assert E.map_vars(e, f).terms == _rewrite_reference(e, lambda v, ex: f(v)).terms

    def image(v, ex):
        img = images.get((v.field, v.comp))
        if img is None:
            return v
        if ex < 0:
            raise ValueError("negative power")
        for i in v.deriv:
            img = E.total_derivative(img, i)
        return img ** ex

    try:
        want = _rewrite_reference(e, image)
    except ValueError:
        with pytest.raises(ValueError):
            E.substitute(e, images)
        return
    assert E.substitute(e, images).terms == want.terms
