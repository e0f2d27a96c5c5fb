"""Exact multilinear algebra of (k,l)-forms at a boundary point.

The geometry is the one of four-dimensional coframe gravity.  A (k,l)-form
has k antisymmetric slots over the tangent space of the 3-dimensional
boundary slice and l antisymmetric slots over the internal space V, which is
4-dimensional Minkowski space: metric ``ETA`` = diag(-1, 1, 1, 1), with the
time-like slot at index 0, and orientation eps_{0123} = +1.  Forms over the
4-dimensional bulk appear once: ``injective_w21`` lifts the boundary coframe
by a transversal leg.  Coefficients are exact rationals stored on strictly
increasing multi-indices; every question below (kernel dimensions,
injectivity, the structural solve for the unique connection representative)
reduces to exact elimination, so the answers carry no floating-point
caveats.

``rref`` eliminates on integers: each row is cleared of denominators, rows
are combined fraction-free and kept primitive by their gcd, and one Fraction
per entry is formed at the end.  The linear maps the questions ask about
(``wedge_map``, ``structural_maps``) are linear in the coframe, so their
matrices are contracted from sparse tables of the unit forms, built on first
use once per shape.

Index conventions: slice tangent indices run over 0..2 (the tangential
coordinates of the slice), bulk ones over 0..3 with 0 transversal; internal
indices over 0..3.  Antisymmetrization in the component formula of
``internal_act`` is weight one (average over the two index orders).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .errors import InconsistentSystemError, NondegeneracyError

__all__ = [
    "ETA",
    "PForm",
    "pform_dim",
    "perm_sign",
    "wedge",
    "internal_act",
    "wedge_map",
    "coframe_kernel_dim",
    "injective_w21",
    "structural_fix",
    "structural_maps",
    "StructuralFix",
    "rref",
    "nullspace",
    "rank",
    "solve_exact",
    "canonical_coframe",
    "canonical_eps",
    "random_coframe",
    "random_pform",
    "random_fraction",
    "boundary_nondegenerate",
    "metric_nondegenerate",
    "spacelike",
    "induced_metric",
]


# the diagonal of the metric of V, time-like slot first
ETA = (-1, 1, 1, 1)


# ---------------------------------------------------------------------------
# Exact rational matrix routines
# ---------------------------------------------------------------------------

_ZERO = Fraction(0)


def rref(matrix):
    """Reduced row echelon form of an exact matrix; returns (rows, pivot columns).

    Entries may be ints or Fractions.  Each row is scaled to integers by the
    lcm of its denominators, and Gauss-Jordan elimination runs fraction-free
    on integers: a row is cleared against the pivot row by cross
    multiplication and then divided by the gcd of its entries, which keeps it
    primitive.  The rows span the same space at every step, and the reduced
    row echelon form of a matrix is unique, so dividing each pivot row by its
    pivot at the end gives the rows of the rational elimination.  Output rows
    are lists of Fractions, the pivot rows first and then one zero row per
    dependent input row.
    """
    rows = [_integer_row(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        p = prow[c]
        for i, row in enumerate(rows):
            f = row[c]
            if i != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                rows[i] = _primitive([a * x - b * y for x, y in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    out = []
    for row, c in zip(rows, pivots):
        p = row[c]
        out.append([Fraction(x, p) if x else _ZERO for x in row])
    out.extend([_ZERO] * ncols for _ in range(len(rows) - r))
    return out, pivots


def _integer_row(row):
    """The row times the lcm of its denominators, as primitive integers."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (scale // x.denominator) for x in row])


def _primitive(row):
    """An integer row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def rank(matrix) -> int:
    return len(rref(matrix)[1])


def _kernel(rows, pivots, ncols):
    """Kernel basis read off a reduced row echelon form, one vector per free
    column among the first ``ncols``."""
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


def nullspace(matrix, ncols=None):
    """Exact basis of the right kernel, one vector per free column."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    return _kernel(*rref(matrix), ncols)


def solve_exact(matrix, rhs):
    """Solve ``A x = b`` exactly; returns (particular solution, kernel basis).

    One elimination of ``[A | b]``: its first columns are the reduced form of
    ``A``, so the kernel is read off the same rows.  Raises
    InconsistentSystemError when no solution exists.
    """
    if not matrix:
        return [], []
    ncols = len(matrix[0])
    aug = [list(row) + [b] for row, b in zip(matrix, rhs)]
    rows, pivots = rref(aug)
    if ncols in pivots:
        raise InconsistentSystemError("exact linear system has no solution")
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return x, _kernel(rows, pivots, ncols)


# ---------------------------------------------------------------------------
# (k,l)-forms
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _basis(ndim: int, k: int):
    return tuple(itertools.combinations(range(ndim), k))


def pform_dim(k: int, l: int, base_dim: int = 3) -> int:
    return comb(base_dim, k) * comb(4, l)


def perm_sign(p) -> int:
    """Sign of a sequence of distinct numbers: -1 for an odd number of
    inversions, so also the sign of sorting it."""
    inv = sum(1 for i, x in enumerate(p) for y in p[i + 1:] if x > y)
    return -1 if inv % 2 else 1


def _merge_sign(s1, s2):
    """Sign of sorting the concatenation of two disjoint increasing tuples,
    or (None, 0) if they intersect."""
    if set(s1) & set(s2):
        return None, 0
    inv = sum(1 for x in s1 for y in s2 if y < x)
    merged = tuple(sorted(s1 + s2))
    return merged, -1 if inv % 2 else 1


class PForm:
    """An exact (k,l)-form at a point, over the slice (``base_dim`` 3) or the
    bulk (4); immutable."""

    __slots__ = ("k", "l", "base_dim", "coeffs")

    def __init__(self, k, l, coeffs=None, base_dim=3):
        self.k = k
        self.l = l
        self.base_dim = base_dim
        clean = {}
        for (I, A), c in (coeffs or {}).items():
            c = Fraction(c)
            if c == 0:
                continue
            if tuple(I) != tuple(sorted(I)) or tuple(A) != tuple(sorted(A)):
                raise ValueError("PForm coefficients must use strictly increasing multi-indices")
            clean[(tuple(I), tuple(A))] = c
        self.coeffs = clean

    @staticmethod
    def from_vector(k, l, vec):
        """The (k,l)-form over the slice with components ``vec``, in
        ``to_vector`` order."""
        keys = ((I, A) for I in _basis(3, k) for A in _basis(4, l))
        return PForm(k, l, dict(zip(keys, vec)))

    def to_vector(self):
        return [self.coeffs.get((I, A), _ZERO)
                for I in _basis(self.base_dim, self.k) for A in _basis(4, self.l)]

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other):
        if (self.k, self.l, self.base_dim) != (other.k, other.l, other.base_dim):
            raise ValueError("shape mismatch in PForm addition")
        acc = dict(self.coeffs)
        for key, c in other.coeffs.items():
            acc[key] = acc.get(key, Fraction(0)) + c
        return PForm(self.k, self.l, acc, self.base_dim)

    def __neg__(self):
        return PForm(self.k, self.l, {k: -c for k, c in self.coeffs.items()}, self.base_dim)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, s):
        s = Fraction(s)
        return PForm(self.k, self.l, {k: s * c for k, c in self.coeffs.items()}, self.base_dim)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, PForm)
                and (self.k, self.l, self.base_dim) == (other.k, other.l, other.base_dim)
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.k, self.l, self.base_dim, tuple(sorted(self.coeffs.items()))))

    def get_full(self, I, A):
        """Coefficient at an arbitrary (possibly unsorted) index pair, with sign."""
        if len(set(I)) != len(I) or len(set(A)) != len(A):
            return Fraction(0)
        c = self.coeffs.get((tuple(sorted(I)), tuple(sorted(A))), _ZERO)
        return c * perm_sign(I) * perm_sign(A)

    def __repr__(self):
        return f"PForm(k={self.k}, l={self.l}, {len(self.coeffs)} coeffs)"


def wedge(a: PForm, b: PForm) -> PForm:
    """Wedge in both gradings; graded-commutative with sign (-1)^(kk'+ll')."""
    if a.base_dim != b.base_dim:
        raise ValueError("PForms live over different bases")
    k, l = a.k + b.k, a.l + b.l
    if k > a.base_dim or l > 4:
        raise ValueError(f"wedge degree ({k},{l}) overflows the ({a.base_dim},4) space")
    acc = {}
    for (I1, A1), c1 in a.coeffs.items():
        for (I2, A2), c2 in b.coeffs.items():
            I, sI = _merge_sign(I1, I2)
            if I is None:
                continue
            A, sA = _merge_sign(A1, A2)
            if A is None:
                continue
            key = (I, A)
            acc[key] = acc.get(key, Fraction(0)) + c1 * c2 * sI * sA
    return PForm(k, l, acc, a.base_dim)


def internal_act(v: PForm, e: PForm) -> PForm:
    """The curvature-style action of a (1,2)-form on a (1,1)-form.

    Component rule (weight-one antisymmetrization over the two base slots):
    ``(v.e)^a_{ij} = eta_{bc} v^{ab}_{[i} e^c_{j]}``.  Bilinear; output (2,1).
    """
    if (v.k, v.l) != (1, 2) or (e.k, e.l) != (1, 1):
        raise ValueError("internal_act expects a (1,2)-form acting on a (1,1)-form")
    acc = {}
    half = Fraction(1, 2)
    for (Iv, Av), cv in v.coeffs.items():
        i = Iv[0]
        for (Ie, Ae), ce in e.coeffs.items():
            j = Ie[0]
            if i == j:
                continue
            c = Ae[0]
            # v^{ab} with (a,b) = Av sorted; contract second slot with eta_bc e^c
            for a, b, sgn in ((Av[0], Av[1], 1), (Av[1], Av[0], -1)):
                if b != c:
                    continue
                val = half * cv * ce * sgn * ETA[b]
                (ii, jj), s = ((i, j), 1) if i < j else ((j, i), -1)
                key = ((ii, jj), (a,))
                acc[key] = acc.get(key, Fraction(0)) + val * s
    return PForm(2, 1, acc, v.base_dim)


# ---------------------------------------------------------------------------
# Linear maps between PForm spaces
# ---------------------------------------------------------------------------

def _map_rows(f, k, l, kc, lc, base_dim):
    """Exact matrix of a linear map from (k,l)- to (kc,lc)-forms, one column
    per unit form of the domain, rows in ``_basis`` order of the codomain."""
    cod_index = {key: i for i, key in enumerate(
        (I, A) for I in _basis(base_dim, kc) for A in _basis(4, lc))}
    units = _units(k, l, base_dim)
    rows = [[Fraction(0)] * len(units) for _ in range(len(cod_index))]
    for j, (_, u) in enumerate(units):
        for ckey, c in f(u).coeffs.items():
            rows[cod_index[ckey]][j] = c
    return rows


def _units(k, l, base_dim):
    """The unit (k,l)-forms in ``_basis`` order, with their keys."""
    return [((I, A), PForm(k, l, {(I, A): 1}, base_dim))
            for I in _basis(base_dim, k) for A in _basis(4, l)]


def _sparse(rows):
    return tuple((i, j, c) for i, row in enumerate(rows) for j, c in enumerate(row) if c)


@lru_cache(maxsize=None)
def _wedge_table(ke, le, k, l, base_dim):
    """Per unit (ke,le)-form ``u``, the nonzero entries ``(row, column, value)``
    of the matrix of ``x -> u ^ x`` on (k,l)-forms."""
    return {key: _sparse(_map_rows(lambda x: wedge(u, x), k, l, ke + k, le + l, base_dim))
            for key, u in _units(ke, le, base_dim)}


@lru_cache(maxsize=None)
def _structural_table():
    """Per pair of a unit (1,1)-form ``u`` and a unit (0,1)-form ``p``, the
    nonzero entries of the matrix of ``v -> p ^ (v.u)`` on (1,2)-forms."""
    return {(ku, kp): _sparse(_map_rows(lambda v: wedge(p, internal_act(v, u)), 1, 2, 2, 2, 3))
            for ku, u in _units(1, 1, 3) for kp, p in _units(0, 1, 3)}


def _contract(table, coeffs, nrows, ncols):
    """The matrix ``sum_key coeffs[key] * table[key]``, as rows of Fractions."""
    rows = [[_ZERO] * ncols for _ in range(nrows)]
    for key, c in coeffs.items():
        for i, j, t in table[key]:
            rows[i][j] += c * t
    return rows


def wedge_map(e: PForm, k: int, l: int) -> list:
    """The map ``x -> e ^ x`` on (k,l)-forms, as exact rows.

    The map is linear in ``e``: its matrix is contracted from the matrices of
    the unit forms of e's shape, which are built once per shape."""
    n = e.base_dim
    table = _wedge_table(e.k, e.l, k, l, n)
    return _contract(table, e.coeffs, pform_dim(k + e.k, l + e.l, n), pform_dim(k, l, n))


def structural_maps(e: PForm, eps: PForm):
    """The two maps of the structural constraint, as exact matrices into
    (2,2)-forms: ``m_v`` of ``v -> eps ^ (v.e)`` on (1,2)-forms and ``m_s``
    of ``sigma -> e ^ sigma`` on (1,1)-forms.

    ``m_v`` is bilinear in ``(e, eps)``, so it is contracted from the
    matrices of pairs of unit forms, built once."""
    pairs = {(ku, kp): cu * cp for ku, cu in e.coeffs.items() for kp, cp in eps.coeffs.items()}
    m_v = _contract(_structural_table(), pairs, pform_dim(2, 2), pform_dim(1, 2))
    return m_v, wedge_map(e, 1, 1)


# ---------------------------------------------------------------------------
# Coframe facts
# ---------------------------------------------------------------------------

def _legs(e: PForm):
    """The spatial legs of a (1,1)-form as vectors in V."""
    return [[e.coeffs.get(((i,), (a,)), _ZERO) for a in range(4)] for i in range(e.base_dim)]


def boundary_nondegenerate(e: PForm) -> bool:
    return rank(_legs(e)) == e.base_dim


def induced_metric(e: PForm):
    """g_ij = eta(e_i, e_j) on the slice, exact."""
    legs = _legs(e)
    return [[sum(eta * x * y for eta, x, y in zip(ETA, u, w)) for w in legs] for u in legs]


def metric_nondegenerate(e: PForm) -> bool:
    """Nondegeneracy of the induced boundary metric g_ij = eta(e_i, e_j)."""
    g = induced_metric(e)
    return rank(g) == e.base_dim


def spacelike(e: PForm) -> bool:
    """Positive definiteness of the induced metric (Sylvester, exact).

    A space-like slice guarantees that any time-like internal vector
    completes the coframe legs to a basis, which is the setting of the
    unique-representative theorem behind ``structural_fix``.
    """
    g = induced_metric(e)
    n = e.base_dim
    for k in range(1, n + 1):
        minor = [row[:k] for row in g[:k]]
        if _det(minor) <= 0:
            return False
    return True


def _det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        total += sign * m[0][j] * _det(sub)
        sign = -sign
    return total


def coframe_kernel_dim(e: PForm) -> int:
    """dim ker of ``e ^ .`` on (1,2)-forms; 6 for every nondegenerate coframe
    over the slice."""
    if not boundary_nondegenerate(e):
        raise NondegeneracyError("coframe legs are linearly dependent")
    return pform_dim(1, 2) - rank(wedge_map(e, 1, 2))


def _bulk_lift(e: PForm) -> PForm:
    """Extend the boundary coframe to a coframe over the four-dimensional
    bulk: slot 0 is the new transversal direction, filled with the first
    standard basis vector of V that keeps the legs independent."""
    legs = _legs(e)
    chosen = 0
    for a in range(4):
        cand = [Fraction(int(b == a)) for b in range(4)]
        if rank(legs + [cand]) == 4:
            chosen = a
            break
    coeffs = {((0,), (chosen,)): Fraction(1)}
    for (I, A), c in e.coeffs.items():
        coeffs[((I[0] + 1,), A)] = c
    return PForm(1, 1, coeffs, base_dim=4)


def injective_w21(e: PForm) -> bool:
    """Whether wedging with the (bulk-extended) coframe is injective on
    (2,1)-forms.

    Over the four-dimensional bulk the map (2,1) -> (3,2) is square (24 x 24)
    and injective exactly when the coframe is nondegenerate; this is the
    pointwise content of torsion-freeness being equivalent to its coframe
    contraction.  The boundary coframe is lifted by one transversal leg, so
    the answer is True precisely for boundary-nondegenerate ``e``.
    """
    return rank(wedge_map(_bulk_lift(e), 2, 1)) == pform_dim(2, 1, 4)


@dataclass(frozen=True)
class StructuralFix:
    """Solution of the structural constraint: the in-class connection shift
    ``v`` (unique), one admissible ``sigma``, the dimension of the sigma
    ambiguity (reported, never asserted), and the residuals of the two
    identities, ``e ^ v`` and ``eps ^ (T + v.e) - e ^ sigma``, as rechecked
    exactly after the solve."""
    v: PForm
    sigma: PForm
    sigma_ambiguity: int
    kernel_residual: PForm
    constraint_residual: PForm


def structural_fix(e: PForm, eps: PForm, T: PForm) -> StructuralFix:
    """Find the unique kernel shift making the torsion satisfy the structural
    constraint.

    Solves exactly for ``v`` (1,2) and ``sigma`` (1,1) with::

        e ^ v = 0
        eps ^ (T + v.e) = e ^ sigma

    ``e`` must be metric nondegenerate and ``eps`` a time-like section
    completing the coframe legs to a basis of V.  Uniqueness of ``v`` is a
    theorem for such data; an inconsistent or v-ambiguous system is an
    internal failure and raises.
    """
    if (eps.k, eps.l) != (0, 1) or (T.k, T.l) != (2, 1) or (e.k, e.l) != (1, 1):
        raise ValueError("structural_fix expects e:(1,1), eps:(0,1), T:(2,1)")
    if not metric_nondegenerate(e):
        raise NondegeneracyError("coframe is not metric nondegenerate")
    evec = eps.to_vector()
    if sum(eta * x * x for eta, x in zip(ETA, evec)) >= 0:
        raise NondegeneracyError("eps must be time-like")
    if rank(_legs(e) + [evec]) != 4:
        raise NondegeneracyError("eps does not complete the coframe to a basis")

    nv, ns = pform_dim(1, 2), pform_dim(1, 1)
    # columns: v components then sigma components; rows: e ^ v = 0, then
    # eps ^ (v.e) - e ^ sigma = -eps ^ T
    m_v, m_s = structural_maps(e, eps)
    system = [r + [_ZERO] * ns for r in wedge_map(e, 1, 2)]
    rhs = [Fraction(0)] * len(system)
    system += [rv + [-x for x in rs] for rv, rs in zip(m_v, m_s)]
    rhs += [-c for c in wedge(eps, T).to_vector()]

    sol, kern = solve_exact(system, rhs)
    v_ambiguous = any(any(x != 0 for x in kvec[:nv]) for kvec in kern)
    if v_ambiguous:
        raise InconsistentSystemError(
            "structural constraint admits more than one kernel shift; uniqueness violated")
    v = PForm.from_vector(1, 2, sol[:nv])
    sigma = PForm.from_vector(1, 1, sol[nv:])

    # exact residual recheck; failure here is an internal logic error
    kernel_residual = wedge(e, v)
    if not kernel_residual.is_zero():
        raise InconsistentSystemError("structural solve produced v outside the kernel")
    constraint_residual = wedge(eps, T + internal_act(v, e)) - wedge(e, sigma)
    if not constraint_residual.is_zero():
        raise InconsistentSystemError("structural solve violates the constraint identity")
    return StructuralFix(v=v, sigma=sigma, sigma_ambiguity=len(kern),
                         kernel_residual=kernel_residual, constraint_residual=constraint_residual)


# ---------------------------------------------------------------------------
# Sampling helpers (seeded, exact)
# ---------------------------------------------------------------------------

def canonical_coframe() -> PForm:
    """e_i = (i+1)-th standard basis vector of V (skipping the time-like slot)."""
    return PForm(1, 1, {((i,), (i + 1,)): 1 for i in range(3)})


def canonical_eps() -> PForm:
    return PForm(0, 1, {((), (0,)): 1})


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-6, 6), rng.randint(1, 3))


def random_pform(rng: random.Random, k, l) -> PForm:
    """A (k,l)-form over the slice with every component drawn by
    ``random_fraction``."""
    return PForm(k, l, {(I, A): random_fraction(rng) for I in _basis(3, k) for A in _basis(4, l)})


def random_coframe(rng: random.Random, require_spacelike=False) -> PForm:
    """Rejection-sample an exact coframe with a nondegenerate induced
    boundary metric; ``require_spacelike`` demands a positive definite one
    (so a time-like section always completes the legs)."""
    while True:
        e = random_pform(rng, 1, 1)
        # a positive definite induced metric already makes the legs independent
        if require_spacelike:
            if spacelike(e):
                return e
            continue
        if boundary_nondegenerate(e) and metric_nondegenerate(e):
            return e
