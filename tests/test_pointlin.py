"""Exact (k,l)-form algebra at a point: wedge, kernels, the structural solve."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ktphase.errors import InconsistentSystemError, NondegeneracyError
from ktphase.pointlin import (
    PForm,
    _bulk_lift,
    _map_rows,
    boundary_nondegenerate,
    canonical_coframe,
    canonical_eps,
    coframe_kernel_dim,
    injective_w21,
    internal_act,
    metric_nondegenerate,
    nullspace,
    pform_dim,
    random_coframe,
    random_fraction,
    random_pform,
    rank,
    rref,
    solve_exact,
    spacelike,
    structural_fix,
    structural_maps,
    wedge,
    wedge_map,
)


@pytest.fixture
def rng():
    return random.Random(20240)


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

def _reference_rref(matrix):
    """Gauss-Jordan elimination in Fractions, the textbook way."""
    rows = [list(map(Fraction, r)) for r in matrix]
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


_entries = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-10, max_value=10, max_denominator=50),
    st.fractions(min_value=-10 ** 9, max_value=10 ** 9, max_denominator=10 ** 12),
)


@st.composite
def _matrices(draw):
    """Tall, wide and square matrices, with zero rows and columns and repeated
    (possibly rescaled) rows mixed in."""
    nrows, ncols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    rows = [draw(st.lists(_entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[c] = 0
    for _ in range(draw(st.integers(0, 3))):
        action = draw(st.sampled_from(("zero", "repeat")))
        i = draw(st.integers(0, len(rows) - 1))
        if action == "zero":
            rows[i] = [0] * ncols
        else:
            s = draw(st.sampled_from((1, -1, Fraction(-7, 3))))
            rows.insert(draw(st.integers(0, len(rows))), [s * x for x in rows[i]])
    return rows


@settings(max_examples=150, deadline=None)
@given(_matrices())
def test_rref_matches_fraction_gauss_jordan(m):
    rows, pivots = rref(m)
    assert (rows, pivots) == _reference_rref(m)
    assert all(type(x) is Fraction for row in rows for x in row)


def test_rref_and_rank():
    m = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]]
    rows, pivots = rref(m)
    assert pivots == [0]
    assert rank(m) == 1


def test_nullspace_exact():
    m = [[Fraction(1), Fraction(2), Fraction(3)]]
    basis = nullspace(m)
    assert len(basis) == 2
    for vec in basis:
        assert sum(a * b for a, b in zip(m[0], vec)) == 0


def test_solve_exact_inconsistent():
    m = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    with pytest.raises(InconsistentSystemError):
        solve_exact(m, [Fraction(1), Fraction(2)])


def test_solve_exact_kernel_equals_nullspace(rng):
    # rank-deficient consistent systems A = C B, b = A x0: the kernel read off
    # the one elimination of [A | b] is the kernel of A alone
    for _ in range(25):
        nrows, ncols = rng.randint(2, 6), rng.randint(2, 7)
        r = rng.randint(1, min(nrows, ncols) - 1)
        B = [[random_fraction(rng) for _ in range(ncols)] for _ in range(r)]
        C = [[random_fraction(rng) for _ in range(r)] for _ in range(nrows)]
        A = [[sum(C[i][k] * B[k][j] for k in range(r)) for j in range(ncols)] for i in range(nrows)]
        x0 = [random_fraction(rng) for _ in range(ncols)]
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
        x, kern = solve_exact(A, b)
        assert [sum(a * y for a, y in zip(row, x)) for row in A] == b
        assert kern == nullspace(A)
        assert len(kern) == ncols - rank(A) >= ncols - r


# ---------------------------------------------------------------------------
# dimensions and wedge
# ---------------------------------------------------------------------------

def test_dimension_bookkeeping():
    assert pform_dim(1, 2) == 18
    assert pform_dim(2, 3) == 12
    assert pform_dim(2, 2) == 18
    assert pform_dim(1, 1) == 12
    # over the four-dimensional bulk base used by the injectivity check
    assert pform_dim(2, 1, base_dim=4) == 24
    assert pform_dim(3, 2, base_dim=4) == 24


def test_wedge_with_zero(rng):
    a = random_pform(rng, 1, 1)
    z = PForm(1, 2)
    assert wedge(a, z).is_zero()


def test_wedge_canonical_cube_matches_expansion_oracle():
    # oracle: direct expansion over all index triples, antisymmetrizing the
    # three factor slots over both gradings (shuffle convention; the 3!
    # multiplicity is what the 1/k! factors in the gravity action absorb)
    e = canonical_coframe()
    cube = wedge(wedge(e, e), e)

    def full(form, I, A):
        return form.get_full(I, A)

    expected = {}
    for I in itertools.combinations(range(3), 3):
        for A in itertools.combinations(range(4), 3):
            val = Fraction(0)
            for sp in itertools.permutations(range(3)):
                for ip in itertools.permutations(range(3)):
                    val += (_perm_sign(sp) * _perm_sign(ip)
                            * full(e, (I[sp[0]],), (A[ip[0]],))
                            * full(e, (I[sp[1]],), (A[ip[1]],))
                            * full(e, (I[sp[2]],), (A[ip[2]],)))
            if val:
                expected[(I, A)] = val
    assert cube.coeffs == expected
    assert cube.coeffs == {((0, 1, 2), (1, 2, 3)): Fraction(6)}


def _perm_sign(p):
    s = 1
    p = list(p)
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


def test_wedge_graded_commutativity(rng):
    for (k1, l1), (k2, l2) in (((1, 1), (1, 2)), ((1, 1), (2, 1)), ((0, 1), (2, 1)),
                               ((1, 2), (1, 1)), ((1, 1), (1, 1))):
        a = random_pform(rng, k1, l1)
        b = random_pform(rng, k2, l2)
        sign = (-1) ** (k1 * k2 + l1 * l2)
        assert wedge(a, b) == wedge(b, a).scale(sign)


def test_wedge_degree_overflow(rng):
    a = random_pform(rng, 2, 2)
    with pytest.raises(ValueError):
        wedge(a, a)


def test_wedge_associative(rng):
    a = random_pform(rng, 1, 1)
    b = random_pform(rng, 1, 1)
    c = random_pform(rng, 1, 2)
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


# ---------------------------------------------------------------------------
# internal action
# ---------------------------------------------------------------------------

def test_internal_act_zero(rng):
    e = random_pform(rng, 1, 1)
    assert internal_act(PForm(1, 2), e).is_zero()


def test_internal_act_single_entry_oracle():
    # rank-one v against the canonical embedding: check index by index
    # (v.e)^a_{ij} = eta_bc v^{ab}_[i e^c_j]
    e = canonical_coframe()
    v = PForm(1, 2, {((0,), (0, 2)): Fraction(3)})  # v^{02}_0 = 3
    out = internal_act(v, e)
    # only contraction: b=2 hits e^2_1 (leg 1), eta_22 = +1
    # (v.e)^0_{01} = 1/2 * v^{02}_0 e^2_1 = 3/2 ; antisymmetric partner picks
    # up the sign; the a=2 component pairs v^{20}_0 = -3 with e^0 legs (absent)
    assert out.coeffs == {((0, 1), (0,)): Fraction(3, 2)}


def test_internal_act_bilinear(rng):
    e = random_pform(rng, 1, 1)
    for _ in range(10):
        v1 = random_pform(rng, 1, 2)
        v2 = random_pform(rng, 1, 2)
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        lhs = internal_act(v1.scale(c) + v2, e)
        rhs = internal_act(v1, e).scale(c) + internal_act(v2, e)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def test_nullspace_identity_and_zero():
    n = pform_dim(1, 1)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    assert nullspace(ident) == []
    zero = [[Fraction(0)] * n for _ in range(n)]
    assert len(nullspace(zero)) == n


def test_map_tables_match_the_forms(rng):
    # the maps contracted from unit-form tables against the maps built column
    # by column from wedge and internal_act on the coframes themselves
    eps_random = random_pform(rng, 0, 1)
    for e in [canonical_coframe()] + [random_coframe(rng) for _ in range(12)]:
        for x, k, l in ((e, 1, 2), (e, 1, 1), (e, 0, 2), (_bulk_lift(e), 2, 1)):
            want = _map_rows(lambda y: wedge(x, y), k, l, k + 1, l + 1, x.base_dim)
            assert wedge_map(x, k, l) == want
        for eps in (canonical_eps(), eps_random):
            m_v, m_s = structural_maps(e, eps)
            assert m_v == _map_rows(lambda v: wedge(eps, internal_act(v, e)), 1, 2, 2, 2, 3)
            assert m_s == _map_rows(lambda s: wedge(e, s), 1, 1, 2, 2, 3)


def test_coframe_kernel_dim_canonical():
    assert coframe_kernel_dim(canonical_coframe()) == 6
    basis = [PForm.from_vector(1, 2, v) for v in nullspace(wedge_map(canonical_coframe(), 1, 2))]
    assert len(basis) == 6
    for v in basis:
        assert wedge(canonical_coframe(), v).is_zero()


def test_coframe_kernel_invariant_under_internal_rotation(rng):
    # compose the canonical coframe with an invertible internal map and
    # recompute exactly
    e = canonical_coframe()
    for _ in range(3):
        while True:
            M = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
            if rank(M) == 4:
                break
        coeffs = {}
        for (I, A), c in e.coeffs.items():
            for b in range(4):
                val = c * M[b][A[0]]
                if val:
                    key = (I, (b,))
                    coeffs[key] = coeffs.get(key, Fraction(0)) + val
        rotated = PForm(1, 1, {k: v for k, v in coeffs.items() if v})
        assert coframe_kernel_dim(rotated) == 6


def test_coframe_kernel_degenerate_raises():
    bad = PForm(1, 1, {((0,), (1,)): Fraction(1), ((1,), (1,)): Fraction(1),
                       ((2,), (3,)): Fraction(1)})
    with pytest.raises(NondegeneracyError):
        coframe_kernel_dim(bad)


def test_injective_w21():
    assert injective_w21(canonical_coframe())
    assert injective_w21(canonical_coframe().scale(2))
    bad = PForm(1, 1, {((0,), (1,)): Fraction(1), ((1,), (1,)): Fraction(1),
                       ((2,), (3,)): Fraction(1)})
    assert not injective_w21(bad)
    # exhibit an explicit kernel vector by elimination over the bulk lift
    bulk = _bulk_lift(bad)
    keys = [(I, (a,)) for I in itertools.combinations(range(4), 2) for a in range(4)]
    kerns = [PForm(2, 1, dict(zip(keys, v)), base_dim=4) for v in nullspace(wedge_map(bulk, 2, 1))]
    assert kerns and all(wedge(bulk, k).is_zero() for k in kerns)


def test_kernel_and_injectivity_random_sample(rng):
    for _ in range(25):
        e = random_coframe(rng)
        assert coframe_kernel_dim(e) == 6
        assert injective_w21(e)


# ---------------------------------------------------------------------------
# structural solve
# ---------------------------------------------------------------------------

def test_structural_fix_trivial_case(rng):
    e = canonical_coframe()
    eps = canonical_eps()
    T = random_pform(rng, 2, 1)
    fix = structural_fix(e, eps, T)
    # a torsion already satisfying the constraint needs no shift
    T_ok = T + internal_act(fix.v, e)
    again = structural_fix(e, eps, T_ok)
    assert again.v.is_zero()


def test_structural_fix_exact_identities(rng):
    eps = canonical_eps()
    for _ in range(6):
        e = random_coframe(rng, require_spacelike=True)
        T = random_pform(rng, 2, 1)
        fix = structural_fix(e, eps, T)
        assert wedge(e, fix.v).is_zero()
        assert wedge(eps, T + internal_act(fix.v, e)) == wedge(e, fix.sigma)
        # the residuals of the recheck come back with the fix
        assert fix.kernel_residual == PForm(2, 3)
        assert fix.constraint_residual == PForm(2, 2)


def _spacelike_coframe_two_filters(rng):
    # the sampler before it dropped the leg-independence test, which a
    # positive definite induced metric implies
    while True:
        e = random_pform(rng, 1, 1)
        if not boundary_nondegenerate(e):
            continue
        if spacelike(e):
            return e


def test_spacelike_sampler_matches_the_two_filter_reference():
    for seed in range(10):
        got, want = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert random_coframe(got, require_spacelike=True) == _spacelike_coframe_two_filters(want)
        assert got.getstate() == want.getstate()


def test_structural_fix_uniqueness_sampled(rng):
    # the v-components of the combined system's kernel vanish for admissible
    # data; structural_fix raises otherwise, so surviving ten random solves is
    # the uniqueness assertion
    eps = canonical_eps()
    for _ in range(10):
        e = random_coframe(rng, require_spacelike=True)
        T = random_pform(rng, 2, 1)
        structural_fix(e, eps, T)


def test_structural_fix_class_invariance(rng):
    e = canonical_coframe()
    eps = canonical_eps()
    T = random_pform(rng, 2, 1)
    fix = structural_fix(e, eps, T)
    basis = [PForm.from_vector(1, 2, v) for v in nullspace(wedge_map(e, 1, 2))]
    v0 = basis[1].scale(Fraction(3, 2)) + basis[4]
    fix2 = structural_fix(e, eps, T + internal_act(v0, e))
    assert (fix2.v - (fix.v - v0)).is_zero()


def test_structural_fix_precondition_errors(rng):
    e = canonical_coframe()
    T = random_pform(rng, 2, 1)
    space_like = PForm(0, 1, {((), (1,)): Fraction(1)})
    with pytest.raises(NondegeneracyError):
        structural_fix(e, space_like, T)
    degenerate = PForm(1, 1, {((0,), (1,)): Fraction(1), ((1,), (1,)): Fraction(1),
                              ((2,), (3,)): Fraction(1)})
    with pytest.raises(NondegeneracyError):
        structural_fix(degenerate, canonical_eps(), T)


def test_metric_vs_boundary_nondegeneracy():
    # a coframe whose legs are independent but whose induced metric is null
    # in one direction: e_1 = (1,1,0,0) is eta-null
    e = PForm(1, 1, {((0,), (0,)): Fraction(1), ((0,), (1,)): Fraction(1),
                     ((1,), (2,)): Fraction(1), ((2,), (3,)): Fraction(1)})
    assert boundary_nondegenerate(e)
    assert not metric_nondegenerate(e)
