"""Numeric verification backend on a periodic lattice.

The boundary slice is discretized as a periodic grid; the fields of a
boundary chart become float arrays over sites.  The boundary 1-form is
discretized as a covector field on the flattened state space, its vertical
differential assembled as an antisymmetric matrix, and everything the
symbolic layer asserts (kernel dimensions, hamiltonian vector fields,
bracket values, conservation laws) is re-checked in floating point.

Discrete calculus: first derivatives are centered second-order differences.
On a periodic grid the centered difference operator is exactly
skew-symmetric, so the discrete divergence and gradient are negative
transposes of each other and the Gauss-law conservation below telescopes to
machine precision.  The difference is one subtraction over the whole
contiguous buffer, at the offset of one step along the axis, after which the
two wrapped end layers are overwritten (view triples, ``_stencil``), then
one division by ``2h`` (``LatticeGrid._stencil_scale``): the one definition
of the centered difference.  Axes of length 1 are permitted as degenerate
(ultralocal) directions: the centered difference along them is identically
zero, which realizes single-point and single-site toy models.

Evolution: the steppers (``evolve_em``, ``symplectic_current_check``) move
along the hamiltonian vector field of the chart itself, which
:class:`_Flow` reads exactly off the folded chart (a quadratic hamiltonian,
scalar bindings such as the flat metric) and plans once per call as a fixed
list of in-place numpy calls: bit for bit the field that
``hamiltonian_vector_field`` solves for.  A curved metric is an array
binding of ``hinv`` and ``rh``: :class:`LatticeModel` evaluates it, and the
planner refuses it.

Determinism: assembly and sampling loops are plain vectorized numpy with a
fixed reduction order, so results are bit-identical for a fixed seed.
Densities and their slot gradients run as kernels lowered once per process
and fold (:class:`Lowered`, the one float evaluator of expressions; ``expr``
stays exact); a tuple of densities is one kernel with an output each.  The
fold multiplies into the exact expression, before it is lowered, each scalar
binding (a flat metric, Lambda) and zero for each jet with a derivative along
a length-1 axis, where the centered difference vanishes identically.  Both
are exact, so a kernel's columns are arrays only and a single-site kernel
differences nothing; without a length-1 axis only scalars fold.  Each term
multiplies its factors in the order of the exact term walk
(``expr.evaluate``) of the folded expression.  The terms of each output are
summed by one numpy reduction: in term order when the outputs of a kernel
hold more than one value together, pairwise when they hold one (a single
output on a single-site grid).  So multi-site grids reproduce the term walk
bit for bit, and single-site sums agree with it to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import expr as ex
from . import theories as TH
from .calc_var import BoundaryChart
from .errors import CFLError, CheckFailure, InconsistentSystemError, UnboundVariableError
from .expr import Expr
from .pointlin import solve_exact

__all__ = [
    "Lowered",
    "LatticeGrid",
    "LatticeModel",
    "TwoFormMatrix",
    "assemble_two_form",
    "numerical_rank",
    "two_form_rank",
    "hamiltonian_vector_field",
    "poisson_bracket",
    "evolve_em",
    "symplectic_current_check",
    "random_smear",
    "coisotropy_check",
    "surface_tangent_basis",
    "divergence_free_em_data",
]

DEFAULT_RANK_TOL = 1e-8
DEFAULT_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class LatticeGrid:
    """Periodic grid over the boundary slice; ``shape`` is sites per axis.

    Up to three axes.  Each axis needs >= 4 sites for the centered stencils
    not to wrap onto themselves; length-1 axes are allowed and make the
    direction ultralocal (all derivatives vanish).  A 0-dimensional grid
    (empty shape) is a single point, used by the mechanics-type theories.
    """
    shape: tuple = ()
    spacing: float = 1.0

    def __post_init__(self):
        if len(self.shape) > 3:
            raise ValueError("at most three lattice axes")
        for n in self.shape:
            if n != 1 and n < 4:
                raise ValueError(f"axis with {n} sites: need >= 4 (or exactly 1 for ultralocal axes)")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")

    @property
    def ndim(self):
        return len(self.shape)

    @property
    def nsites(self):
        return math.prod(self.shape)

    def cell_volume(self):
        return self.spacing ** self.ndim

    def diff(self, arr: np.ndarray, axis: int) -> np.ndarray:
        """Centered difference ``(a[x+1] - a[x-1]) / (2h)`` along a grid axis
        (exactly skew on the torus), by :func:`_stencil` into a new buffer;
        zero along a length-1 axis.  ``axis`` indexes ``self.shape``, counted
        from the front when the grid axes lead ``arr``, from the end
        (negative) when components lead."""
        arr = np.asarray(arr)
        if self.shape[axis] == 1:
            return np.zeros_like(arr)
        out = np.empty(arr.shape, np.result_type(arr, 1.0))
        for views in _stencil(np.ascontiguousarray(arr), out, axis):
            np.subtract(*views)
        scale, by = self._stencil_scale
        return scale(out, by, out)

    @cached_property
    def _stencil_scale(self) -> tuple:
        """``(ufunc, operand)`` that divides a stencil sum by ``2h``
        elementwise.  When ``2h`` is a power of two, its reciprocal is exact
        and the quotient is a multiply by it: both are the correctly rounded
        value of the same real number, so the bits agree, at about half the
        cost.  Any other ``2h`` is divided by (a reciprocal multiply would
        round twice)."""
        two_h = 2.0 * self.spacing
        if math.frexp(two_h)[0] == 0.5 == math.frexp(1.0 / two_h)[0]:
            return np.multiply, 1.0 / two_h
        return np.divide, two_h

    def smooth(self, arr: np.ndarray) -> np.ndarray:
        """Periodic 3-point average ``((a + a[x-1]) + a[x+1]) / 3`` along
        every grid axis (the leading axes of ``arr``), into a new buffer per
        axis; a length-1 axis is skipped, where the average is the array
        itself.

        As in :func:`_stencil`, each neighbour is one add over the whole flat
        buffer at the offset of one layer, right but at the end layer whose
        neighbour wraps: the first layer is overwritten before ``a[x+1]`` is
        added, and the last layer is summed again afterwards."""
        for axis, n in enumerate(self.shape):
            if n == 1:
                continue
            a = np.ascontiguousarray(arr)
            out = np.empty(a.shape, np.result_type(a, 1.0))
            step = math.prod(a.shape[axis + 1:])
            flat, flat_out = a.reshape(-1), out.reshape(-1)
            (first, _, last), (_, _, before) = _end_slices(axis)
            np.add(flat[step:], flat[:-step], out=flat_out[step:])
            np.add(a[first], a[last], out=out[first])
            np.add(flat_out[:-step], flat[step:], out=flat_out[:-step])
            np.add(a[last], a[before], out=out[last])
            np.add(out[last], a[first], out=out[last])
            arr = np.divide(out, 3.0, out=out)
        return arr


@lru_cache(maxsize=None)
def _end_slices(axis: int) -> tuple:
    """``(site, x + 1, x - 1)`` index triples of the two end sites along
    ``axis``, whose neighbours wrap."""
    def at(s):
        return (slice(None),) * axis + (s,)
    return ((at(slice(0, 1)), at(slice(1, 2)), at(slice(-1, None))),
            (at(slice(-1, None)), at(slice(0, 1)), at(slice(-2, -1))))


def _stencil(src: np.ndarray, out: np.ndarray, axis: int) -> tuple:
    """The ``(x + 1, x - 1, site)`` view triples of the centered difference
    of ``src`` along ``axis`` into ``out``, both C-contiguous and of one
    shape; subtracting each triple in order leaves ``2h`` times the
    difference in ``out``.

    The first triple is one subtraction over the whole flat buffer, of
    elements ``2 * inner`` apart with ``inner = prod(shape[axis+1:])``; it
    is right everywhere but at the two end layers along ``axis``, which the
    other two overwrite with their wrapped neighbours.  The views stay valid
    as long as the buffers do.
    """
    axis %= src.ndim
    inner = math.prod(src.shape[axis + 1:])
    flat, flat_out = src.reshape(-1), out.reshape(-1)
    return ((flat[2 * inner:], flat[:-2 * inner], flat_out[inner:-inner]),) + tuple(
        (src[plus], src[minus], out[at]) for at, plus, minus in _end_slices(axis))


def _run(calls) -> None:
    for fn, args in calls:
        fn(*args)


# ---------------------------------------------------------------------------
# Lowered kernels
# ---------------------------------------------------------------------------

class _Poly:
    """Flat polynomials over the rows of an evaluation table.

    Term ``t`` is ``coef[t]`` times the table rows ``idx[:, t]`` (padded
    with the row of ones), multiplied left to right in the order of its
    monomial, into the table row ``terms.start + t``.  Output ``k`` is the
    sum of the rows ``sel[:, k]``: its terms in their order, padded with the
    row of zeros.
    """

    __slots__ = ("idx", "coef", "terms", "sel")

    def __init__(self, idx, coef, terms, sel):
        self.idx, self.coef, self.terms, self.sel = idx, coef, terms, sel

    def run(self, table: np.ndarray) -> np.ndarray:
        body = table[self.terms]
        coef = self.coef.reshape((-1,) + (1,) * (table.ndim - 1))
        np.multiply(coef, table[self.idx[0]], out=body)
        for rows in self.idx[1:]:
            np.multiply(body, table[rows], out=body)
        return table[self.sel].sum(axis=0)


class Lowered:
    """Expressions lowered once to flat polynomials over their shared jet
    columns, for float evaluation in a few numpy operations.

    ``cols`` are the distinct jet variables, sorted.  A run takes a table of
    ``nrows`` rows, each an array over the evaluation points, with the bound
    columns in rows ``1 .. len(cols)``; a value that is the same at every
    point is not a column but a factor of the coefficients, folded into the
    expression before it is lowered (:func:`_fold`), as is a derivative along
    a length-1 axis, which is zero.  The run fills every other row: ones
    (row 0), zeros, one row per function factor (its argument lowered over
    the same table), one per power other than 1 of a column or factor, and
    one per term.  It returns one row per lowered expression.  Each term
    multiplies its coefficient and factors in the order of the term walk, as
    floats.  ``fns`` binds every function factor, sqrt included, to a
    numpy-aware callable.
    """

    __slots__ = ("cols", "nrows", "_zero", "_steps", "_poly")

    def __init__(self, exprs):
        cols = sorted({v for e in exprs for v in e.jet_vars()})
        self.cols = tuple(cols)
        self._zero = len(cols) + 1
        self.nrows = len(cols) + 2
        self._steps = []  # ("fn", row, name, order, _Poly) | ("pow", row, base row, exponent)
        rows = {v: i for i, v in enumerate(cols, 1)}  # column, function factor or power -> row
        self._poly = self._lower(exprs, rows)

    def _row(self, rows: dict, factor, exponent: int) -> int:
        if factor not in rows:  # a function factor: lower its argument first
            name, order, arg = factor
            poly = self._lower((arg,), rows)
            rows[factor] = self._new_rows(1)
            self._steps.append(("fn", rows[factor], name, order, poly))
        base = rows[factor]
        if exponent == 1:
            return base
        if (base, exponent) not in rows:
            rows[(base, exponent)] = self._new_rows(1)
            self._steps.append(("pow", rows[(base, exponent)], base, exponent))
        return rows[(base, exponent)]

    def _new_rows(self, n: int) -> int:
        self.nrows += n
        return self.nrows - n

    def _lower(self, exprs, rows) -> _Poly:
        factors, coef, counts = [], [], []
        for e in exprs:
            counts.append(len(e.terms))
            for (vars_, fxs), c in e.terms:
                coef.append(float(c))
                factors.append([self._row(rows, v, k) for v, k in vars_]
                               + [self._row(rows, f, k) for f, k in fxs])
        idx = np.zeros((max([1] + [len(f) for f in factors]), len(factors)), dtype=np.intp)
        for t, f in enumerate(factors):
            idx[:len(f), t] = f
        first = self._new_rows(len(factors))
        sel = np.full((max([1] + counts), len(exprs)), self._zero, dtype=np.intp)
        row = first
        for k, n in enumerate(counts):
            sel[:n, k] = np.arange(row, row + n)
            row += n
        return _Poly(idx, np.array(coef), slice(first, row), sel)

    def run(self, table: np.ndarray, fns: dict) -> np.ndarray:
        """Fill the rows of ``table`` after its columns, then return the
        lowered expressions, stacked along the first axis."""
        table[0] = 1.0
        table[self._zero] = 0.0
        for kind, row, *step in self._steps:
            if kind == "fn":
                name, order, poly = step
                fn = fns.get((name, order))
                if fn is None:
                    raise UnboundVariableError(f"no callable bound for {name!r} (derivative order {order})")
                table[row] = fn(poly.run(table)[0])
            else:
                base, exponent = step
                table[row] = table[base] ** exponent
        return self._poly.run(table)


class LatticeModel:
    """A boundary chart realized on a grid, with background bindings.

    ``bindings`` maps each component of a background symbol to its value,
    keyed ``(name, comp)``; a symbol without components may be keyed by its
    bare ``name``.  A value is a finite scalar (a flat background) or an
    array of shape ``grid.shape``.  ``functions`` maps ``(name, order)`` to
    numpy-aware callables for opaque scalar functions.

    A scalar binding is folded into each expression before it is lowered
    (:func:`_fold`), so the float kernel sees only arrays: state
    components, array bindings (a curved metric) and smearings.  A call's
    ``smear`` overrides a binding of the same component, which then stays
    unfolded.  The model finds the coordinates of its length-1 axes once, and
    a jet with a derivative along one folds to zero; state columns are bound
    through a transpose it stores.
    """

    def __init__(self, chart: BoundaryChart, grid: LatticeGrid, bindings=None, functions=None):
        if len(chart.tangential) != grid.ndim:
            raise ValueError(f"chart has {len(chart.tangential)} tangential directions, "
                             f"grid has {grid.ndim}")
        self.chart = chart
        self.grid = grid
        self.bindings = dict(bindings or {})
        self.functions = dict(functions or {})
        self.axis_of = {coord: i for i, coord in enumerate(chart.tangential)}
        self.slots = [(f.name, comp) for f in chart.fields for comp in f.comps]
        self.slot_index = {key: i for i, key in enumerate(self.slots)}
        self.nslots = len(self.slots)
        self.field_comps = {f.name: list(f.comps) for f in chart.fields}
        self._slot_key = tuple(self.slots)
        self._fns = {("sqrt", 0): np.sqrt, **self.functions}
        keys = dict.fromkeys((k, ()) if isinstance(k, str) else k for k in self.bindings)
        bound = {key: self._symbol_array(*key, None) for key in keys if key[0] not in self.field_comps}
        self._scalars = tuple((key, float(v)) for key, v in bound.items() if np.ndim(v) == 0)
        self._ultralocal = frozenset(c for c, n in zip(chart.tangential, grid.shape) if n == 1)
        self._front = (grid.ndim,) + tuple(range(grid.ndim))  # a state's component axis to the front
        self._plans = {}  # lowered kernel -> how this model binds its columns

    # -- state layout ---------------------------------------------------------

    def zero_state(self) -> dict:
        return {name: np.zeros(self.grid.shape + (len(comps),))
                for name, comps in self.field_comps.items()}

    def random_state(self, rng: np.random.Generator) -> dict:
        return {name: rng.standard_normal(self.grid.shape + (len(comps),))
                for name, comps in self.field_comps.items()}

    def check_state(self, state: dict) -> None:
        for name, comps in self.field_comps.items():
            want = self.grid.shape + (len(comps),)
            if name not in state or state[name].shape != want:
                got = state.get(name).shape if name in state else None
                raise ValueError(f"state field {name!r}: expected shape {want}, got {got}")

    def state_to_vector(self, state: dict) -> np.ndarray:
        """Flatten to shape (nsites, nslots): site-major, chart slot order."""
        self.check_state(state)
        cols = []
        for name, comps in self.field_comps.items():
            cols.append(state[name].reshape(self.grid.nsites, len(comps)))
        return np.concatenate(cols, axis=1)

    def vector_to_state(self, vec: np.ndarray) -> dict:
        vec = vec.reshape(self.grid.nsites, self.nslots)
        out = {}
        i = 0
        for name, comps in self.field_comps.items():
            n = len(comps)
            out[name] = vec[:, i:i + n].reshape(self.grid.shape + (n,))
            i += n
        return out

    # -- expression evaluation over sites --------------------------------------

    def _plan(self, cols) -> tuple:
        """How this model binds a column tuple: per state field its table rows
        and component indices, the rows of the other symbols, and the rows
        per derivative multi-index."""
        fields, symbols, derivs = {}, [], {}
        for row, v in enumerate(cols, 1):
            if v.field in self.field_comps:
                rows, comps = fields.setdefault(v.field, ([], []))
                rows.append(row)
                comps.append(self.field_comps[v.field].index(v.comp))
            else:
                symbols.append((row, v.field, v.comp))
            if v.deriv:
                derivs.setdefault(v.deriv, []).append(row)
        return ([(name, np.array(rows), np.array(comps)) for name, (rows, comps) in fields.items()],
                symbols, [(deriv, np.array(rows)) for deriv, rows in derivs.items()])

    def _symbol_array(self, name: str, comp: tuple, smear: dict | None):
        if smear and (name, comp) in smear:
            return smear[(name, comp)]
        if (name, comp) in self.bindings:
            return self.bindings[(name, comp)]
        if not comp and name in self.bindings:
            return self.bindings[name]
        raise KeyError(f"no lattice binding for symbol {name!r} component {comp}")

    def _folded(self, smear: dict | None) -> tuple:
        """What a call folds (:func:`_fold`): the scalar bindings its
        ``smear`` does not hold, and the coordinates of length-1 axes."""
        return tuple(kv for kv in self._scalars if kv[0] not in (smear or ())), self._ultralocal

    def _run(self, low: Lowered, state: dict, smear: dict | None) -> np.ndarray:
        """Run a lowered kernel over the grid.  Each column of its table is a
        state component, a smearing array or an array binding, differenced
        along its derivative indices."""
        plan = self._plans.get(low)
        if plan is None:
            plan = self._plans[low] = self._plan(low.cols)
        fields, symbols, derivs = plan
        table = np.empty((low.nrows,) + self.grid.shape)
        for name, rows, comps in fields:
            table[rows] = state[name][..., comps].transpose(self._front)
        for row, name, comp in symbols:
            table[row] = self._symbol_array(name, comp, smear)
        # rows are stacked in front of the grid axes: difference along axes
        # counted from the end
        lead = self.grid.ndim
        for deriv, rows in derivs:
            arr = table[rows]
            for coord in deriv:
                arr = self.grid.diff(arr, self.axis_of[coord] - lead)
            table[rows] = arr
        return low.run(table, self._fns)

    def evaluate(self, e: Expr | tuple, state: dict, smear: dict | None = None) -> np.ndarray:
        """Evaluate an expression to a float array over grid sites; a tuple
        of expressions runs as one kernel, their arrays stacked in order.

        The expressions are lowered once per process and fold (:func:`_fold`);
        their jet columns are bound to grid arrays and the lowered kernel
        runs over them.
        """
        exprs = e if isinstance(e, tuple) else (e,)
        out = self._run(_density_kernel(exprs, self._folded(smear)), state, smear)
        return out if isinstance(e, tuple) else out[0]

    def density_gradient(self, e: Expr | tuple, state: dict, smear: dict | None = None) -> np.ndarray:
        """Gradient of ``sum_sites density * cellvol`` w.r.t. the state.

        Exact polynomial differentiation of the folded density (:func:`_fold`),
        lowered once per density, slot layout and fold, then the transposed
        stencil of each jet's derivative indices.  Shape (nsites, nslots); a
        tuple of densities runs as one kernel, their gradients stacked in order.
        """
        exprs = e if isinstance(e, tuple) else (e,)
        grad = _gradient_kernel(exprs, self._slot_key, self._folded(smear))
        out = np.zeros((self.grid.nsites, len(exprs) * self.nslots))
        if grad.slots.size:
            g = self._run(grad.kernel, state, smear)
            for deriv, groups in grad.derivs:
                arr = g[groups]
                for coord in deriv:
                    arr = -self.grid.diff(arr, self.axis_of[coord] - self.grid.ndim)
                g[groups] = arr
            (_, first), *rest = grad.layers
            acc = g[first]
            for positions, groups in rest:
                acc[positions] += g[groups]
            out[:, grad.slots] = (acc.reshape(grad.slots.size, -1) * self.grid.cell_volume()).T
        return out.reshape(self.grid.nsites, -1, self.nslots).swapaxes(0, 1) if isinstance(e, tuple) else out


def _fold(e: Expr, fold: tuple) -> Expr:
    """``e`` with ``fold = (scalars, ultralocal)`` multiplied into its
    coefficients: each scalar binding of ``scalars``, ``((name, comp),
    value)`` pairs, and zero for each jet with a derivative along a coordinate
    of ``ultralocal``, the grid axes of length 1, where the centered
    difference is identically zero.  This is exact: a float is a dyadic
    rational, and a derivative of a bound symbol is zero.  A zero under a
    negative power raises ZeroDivisionError, naming the symbol."""
    scalars, ultralocal = fold
    values = dict(scalars)

    def image(v, k):
        if (v.field, v.comp) not in values and ultralocal.isdisjoint(v.deriv):
            return v
        value = 0.0 if v.deriv else values[(v.field, v.comp)]
        if k < 0 and not value:
            raise ZeroDivisionError(f"{ex.to_text(Expr.var(v))} is bound to 0 under the power {k}")
        return Expr.const(Fraction(value) ** k)

    return ex._rewrite(e, image) if values or ultralocal else e


@lru_cache(maxsize=None)
def _density_kernel(exprs: tuple, fold: tuple) -> Lowered:
    return Lowered(tuple(_fold(e, fold) for e in exprs))


@dataclass(frozen=True)
class _Gradient:
    """The slot gradients of densities, lowered into one kernel.

    The kernel has one output per group: a target (a density and a chart
    slot) and the derivative multi-index of a jet of that slot, whose
    ``gradient`` coefficient it evaluates.  ``derivs`` lists the groups per
    multi-index, whose transposed stencils apply after the kernel.  ``slots``
    are the targets with a group, and ``layers[k]`` pairs positions in
    ``slots`` with each one's k-th group, in the density's jet order.
    """
    kernel: Lowered
    derivs: tuple
    slots: np.ndarray
    layers: tuple


@lru_cache(maxsize=None)
def _gradient_kernel(exprs: tuple, slots: tuple, fold: tuple) -> _Gradient:
    """Fold each density of ``exprs`` (:func:`_fold`), then derive and lower
    their slot gradients into one kernel, once per densities, slot layout
    and fold; only the lowered arrays are kept.  Density ``d``'s slot ``j``
    is target ``d * len(slots) + j``."""
    index = {key: j for j, key in enumerate(slots)}
    groups, coeffs = [], []
    for d, e in enumerate(exprs):
        e = _fold(e, fold)
        grad = ex.gradient(e)
        for v in e.jet_vars():
            j = index.get((v.field, v.comp))
            if j is not None and v in grad:
                groups.append((d * len(slots) + j, v.deriv))
                coeffs.append(grad[v])
    per_slot, derivs = {}, {}
    for g, (j, deriv) in enumerate(groups):
        per_slot.setdefault(j, []).append(g)
        if deriv:
            derivs.setdefault(deriv, []).append(g)
    used = sorted(per_slot)
    layers = tuple((np.array([p for p, j in enumerate(used) if len(per_slot[j]) > k]),
                    np.array([per_slot[j][k] for j in used if len(per_slot[j]) > k]))
                   for k in range(max(map(len, per_slot.values()), default=0)))
    return _Gradient(kernel=Lowered(tuple(coeffs)),
                     derivs=tuple((deriv, np.array(gs)) for deriv, gs in derivs.items()),
                     slots=np.array(used, dtype=np.intp), layers=layers)


# ---------------------------------------------------------------------------
# The presymplectic matrix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoFormMatrix:
    """The vertical differential of the discretized boundary 1-form.

    Only ultralocal boundary forms reach the lattice, so the matrix is block
    diagonal over sites and stored as ``blocks`` with shape
    (nsites, nslots, nslots).  Antisymmetric entry-wise by construction.
    ``blocks`` is read-only, so the block pseudo-inverse ``pinv`` is
    computed once per matrix and cached.  It keeps the directions that
    ``numerical_rank`` counts, so ``two_form_rank`` is the number of
    directions ``pinv`` inverts.
    When every block equals the first, as on every flat-metric chart, ``pinv``
    inverts that one block and broadcasts it over the sites (a read-only
    view); otherwise it inverts each site's block.
    """
    model: LatticeModel
    blocks: np.ndarray

    def full(self) -> np.ndarray:
        nsites, m, _ = self.blocks.shape
        out = np.zeros((nsites * m, nsites * m))
        for s in range(nsites):
            out[s * m:(s + 1) * m, s * m:(s + 1) * m] = self.blocks[s]
        return out

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Matrix-vector product; x has shape (nsites, nslots) or flat."""
        xv = x.reshape(self.model.grid.nsites, self.model.nslots)
        return np.einsum("sij,sj->si", self.blocks, xv)

    @cached_property
    def pinv(self) -> np.ndarray:
        first = self.blocks[:1]
        if np.all(self.blocks == first):
            return np.broadcast_to(np.linalg.pinv(first, rcond=DEFAULT_RANK_TOL), self.blocks.shape)
        return np.linalg.pinv(self.blocks, rcond=DEFAULT_RANK_TOL)


def assemble_two_form(model: LatticeModel, state: dict) -> TwoFormMatrix:
    """Assemble the 2-form matrix: mixed second derivatives of the discretized
    boundary-form pairing, antisymmetrized.

    For an ultralocal boundary form ``sum c_j(s) delta(s_j)`` the matrix is
    per-site ``d c_j / d s_i - d c_i / d s_j``, scaled by the cell volume;
    column ``j`` of the Jacobian is the density gradient of ``c_j``.
    """
    model.check_state(state)
    chart = model.chart
    if not _alpha_is_ultralocal(chart):
        raise NotImplementedError("non-ultralocal boundary forms are not supported on the lattice")
    nsites, m = model.grid.nsites, model.nslots
    jac = np.zeros((nsites, m, m))  # jac[s, i, j] = d A_j / d state_i at site s
    for (g,), coeff in chart.alpha.terms:
        jac[:, :, model.slot_index[(g.field, g.comp)]] += model.density_gradient(coeff, state)
    blocks = jac - np.transpose(jac, (0, 2, 1))
    blocks.flags.writeable = False
    return TwoFormMatrix(model=model, blocks=blocks)


def _alpha_is_ultralocal(chart: BoundaryChart) -> bool:
    for gens, coeff in chart.alpha.terms:
        if any(g.deriv for g in gens):
            return False
        if any(v.deriv for v in coeff.jet_vars() if v.field in {f.name for f in chart.fields}):
            return False
    return True


def numerical_rank(sv: np.ndarray):
    """The lattice's one rank cut: per block of singular values ``sv`` (last
    axis, descending), the number above ``DEFAULT_RANK_TOL`` times the
    block's largest, which is the ``rcond`` cut of ``TwoFormMatrix.pinv``."""
    return np.count_nonzero(sv > DEFAULT_RANK_TOL * sv[..., :1], axis=-1)


def two_form_rank(m: TwoFormMatrix) -> int:
    """Rank of the 2-form: ``numerical_rank`` summed over the site blocks."""
    return int(numerical_rank(np.linalg.svd(m.blocks, compute_uv=False)).sum())


def _norm(x: np.ndarray) -> float:
    """2-norm of an array, summed in numpy: ``np.linalg.norm`` goes through a
    threaded BLAS ``dot``, which costs milliseconds on an em-sized state."""
    return float(np.sqrt(np.sum(x * x)))


def hamiltonian_vector_field(m: TwoFormMatrix, df: np.ndarray):
    """Minimum-norm least-squares solution X of ``iota_X omega + dF = 0``.

    With the conventions here that is ``Omega X = dF``.  The reported residual
    is the 2-norm of the defect; zero residual certifies that dF lies in the
    image, a large one quantifies the failure.
    """
    model = m.model
    dfv = df.reshape(model.grid.nsites, model.nslots)
    X = np.einsum("sij,sj->si", m.pinv, dfv)
    residual = _norm(m.apply(X) - dfv)
    return X, residual


def poisson_bracket(f_grad: np.ndarray, g_grad: np.ndarray, m: TwoFormMatrix) -> float:
    """{f, g} = dg(X_f); raises if X_f is not defined at this state, that is
    if its residual exceeds ``DEFAULT_RESIDUAL_TOL`` relative to ``|df|``."""
    X_f, res = hamiltonian_vector_field(m, f_grad)
    scale = max(1.0, _norm(f_grad))
    if res > DEFAULT_RESIDUAL_TOL * scale:
        raise CheckFailure(f"hamiltonian vector field residual {res:.3e} exceeds "
                           f"{DEFAULT_RESIDUAL_TOL:.1e} (relative); bracket ill-defined")
    return float(np.sum(g_grad * X_f))


def surface_tangent_basis(model: LatticeModel, state: dict) -> np.ndarray:
    """Orthonormal columns spanning the tangent space of the chart's algebraic
    surface at ``state``, the rows of ``Vt`` past the ``numerical_rank`` of
    the surface gradients; the identity when the chart has no surface."""
    n = model.grid.nsites * model.nslots
    if not model.chart.surface:
        return np.eye(n)
    rows = []
    for cons in model.chart.surface:
        grad = model.density_gradient(cons, state)  # local constraints: per site
        # one constraint row per site
        g = np.zeros((model.grid.nsites, n))
        flat = grad.reshape(model.grid.nsites, model.nslots)
        for s in range(model.grid.nsites):
            g[s, s * model.nslots:(s + 1) * model.nslots] = flat[s]
        rows.append(g)
    J = np.concatenate(rows, axis=0)
    _, sv, vt = np.linalg.svd(J)
    return vt[numerical_rank(sv):].T


# ---------------------------------------------------------------------------
# Smeared constraints
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _smear_components(density: Expr, chart: BoundaryChart) -> tuple:
    exprs = [e for _, e in chart.alpha.terms + chart.constraints] + list(chart.surface)
    held = {f.name for f in chart.fields} | {v.field for e in exprs for v in e.jet_vars()}
    return tuple(sorted({(v.field, v.comp) for v in density.jet_vars() if v.field not in held}))


def random_smear(model: LatticeModel, density: Expr, rng: np.random.Generator) -> dict:
    """Smooth random arrays, the ``smear`` of ``model.evaluate`` and
    ``model.density_gradient``, for a constraint density's components whose
    symbol is neither a chart field nor a symbol of the chart's boundary
    1-form, constraints or surface: keyed ``(symbol, comp)``, drawn sorted."""
    return {key: model.grid.smooth(rng.standard_normal(model.grid.shape))
            for key in _smear_components(density, model.chart)}


def constraint_violation(cs: dict, model: LatticeModel, state: dict,
                         rng: np.random.Generator) -> float:
    """Max absolute smeared constraint value over four random unit-normalized
    smearings per family of ``cs`` (family name -> density); NaN if any is."""
    values = []
    for density in cs.values():
        for _ in range(4):
            smear = random_smear(model, density, rng)
            norm = max(1.0, max(_norm(a) for a in smear.values()))
            value = float(model.evaluate(density, state, smear).sum() * model.grid.cell_volume())
            values.append(abs(value) / norm)
    return float(np.max(values, initial=0.0))


def coisotropy_check(cs: dict, omega: TwoFormMatrix, state: dict,
                     rng: np.random.Generator, samples: int = 10) -> tuple:
    """Sample smeared constraint pairs of the families ``cs`` (name ->
    density, as ``theories.constraint_set`` gives them) and measure their
    brackets at a state, with ``omega`` the 2-form assembled there.

    Returns ``(max_bracket, violation)``: the largest absolute bracket of
    ``samples`` pairs, and the state's :func:`constraint_violation`.  A
    bracket whose vector field is undefined counts as infinite, and a NaN
    one sticks.  The caller holds each to its tolerance (``verify`` reads
    them from the golden record); an off-surface state reports its
    violation rather than raising.
    """
    model = omega.model
    violation = constraint_violation(cs, model, state, rng)
    max_bracket = 0.0
    cons = list(cs.values())
    for _ in range(samples):
        ci = cons[rng.integers(len(cons))]
        cj = cons[rng.integers(len(cons))]
        si = random_smear(model, ci, rng)
        sj = random_smear(model, cj, rng)
        gi = model.density_gradient(ci, state, si)
        gj = model.density_gradient(cj, state, sj)
        try:
            bracket = abs(poisson_bracket(gi, gj, omega))
        except CheckFailure:
            bracket = float("inf")
        max_bracket = float(np.maximum(max_bracket, bracket))  # a NaN sticks
    return max_bracket, violation


# ---------------------------------------------------------------------------
# The planned hamiltonian flow of a quadratic chart
# ---------------------------------------------------------------------------

def _linear(e: Expr, index: dict, axis_of: dict) -> tuple:
    """``e`` as ``(coefficient, (slot, axis))`` terms, in term order, of a
    linear form in the state slots, underived (axis None) or differenced
    once; anything else (an unfolded symbol, a product, a function, a
    constant, a second derivative) raises ValueError."""
    terms = []
    for (vars_, fns), c in e.terms:
        slots = [index.get((v.field, v.comp)) for v, _ in vars_]
        if None in slots:
            raise ValueError(f"{ex.to_text(e)}: a symbol is neither a state slot nor bound to a scalar")
        if fns or len(vars_) != 1 or vars_[0][1] != 1 or len(vars_[0][0].deriv) > 1:
            raise ValueError(f"{ex.to_text(e)} is not linear in the state and its first differences")
        deriv = vars_[0][0].deriv
        terms.append((c, (slots[0], axis_of[deriv[0]] if deriv else None)))
    return tuple(terms)


@lru_cache(maxsize=None)
def _flow_terms(chart: BoundaryChart, slots: tuple, fold: tuple, outputs: tuple, reads: tuple) -> tuple:
    """The folded chart's hamiltonian vector field, exactly: per slot of
    ``outputs`` its ``(sign, form, axis)`` terms in ``density_gradient``'s
    order, each a jet's gradient (a :func:`_linear` form, divided by the sign
    of its first coefficient so that forms which agree up to sign are one),
    differenced by the adjoint along ``axis`` unless it is None; and the
    form of each density of ``reads``.  The constant per-site 2-form block
    is inverted exactly, so the cell volumes cancel; every entry of its
    inverse must be 0 or ±1 (a signed permutation for em and scalar)."""
    index = {key: j for j, key in enumerate(slots)}
    axis_of = {coord: i for i, coord in enumerate(chart.tangential)}
    H = _fold(chart.hamiltonian, fold)
    grad = ex.gradient(H)
    dH = [[] for _ in slots]
    for v in H.jet_vars():
        if v in grad:
            ((_, (j, axis)),) = _linear(Expr.var(v), index, axis_of)
            form = _linear(grad[v], index, axis_of)
            sign = 1 if form[0][0] > 0 else -1
            form = tuple((float(c * sign), jet) for c, jet in form)
            dH[j].append((-sign if axis is not None else sign, form, axis))
    n = len(slots)
    jac = [[Fraction(0)] * n for _ in range(n)]  # jac[i][j] = d alpha_j / d slot_i
    for (g,), coeff in chart.alpha.terms:
        j = index.get((g.field, g.comp))
        for c, (i, axis) in _linear(_fold(coeff, fold), index, axis_of):
            if g.deriv or j is None or axis is not None:
                raise ValueError("the boundary 1-form is not ultralocal in the state")
            jac[i][j] += c
    block = [[jac[i][j] - jac[j][i] for j in range(n)] for i in range(n)]
    inverse = []  # inverse[j][k]: entry (k, j) of the block's inverse
    for j in range(n):
        try:
            x, kernel = solve_exact(block, [Fraction(int(i == j)) for i in range(n)])
        except InconsistentSystemError:  # singular: e_j is not in its range
            kernel = True
        if kernel or any(abs(v) not in (0, 1) for v in x):
            raise ValueError("the chart's 2-form is degenerate, or its inverse has an entry not 0 or ±1")
        inverse.append(x)
    fields = tuple(tuple((int(inverse[j][k]) * s, form, axis) for j in range(n) if inverse[j][k]
                         for s, form, axis in dH[j]) for k in outputs)
    reads = (_linear(_fold(e, fold), index, axis_of) for e in reads)
    return fields, tuple(tuple((float(c), jet) for c, jet in form) for form in reads)


def _stage(grid: LatticeGrid, per_axis: list) -> tuple:
    """A buffer stacking the differences of ``(stack, index)`` rows along
    each grid axis, each axis's offset, and the calls that fill it: per axis
    a stencil over consecutive rows of one stack, else over one ``take`` of
    them (faster than copying a strided view) or a copy of each; one scale."""
    out = np.zeros((sum(map(len, per_axis)),) + grid.shape)
    calls, offsets, at = [], [], 0
    for axis, rows in enumerate(per_axis):
        offsets.append(at)
        if not rows:
            continue
        (stack, first), idx = rows[0], [i for _, i in rows]
        shared = all(s is stack for s, _ in rows)
        src = stack[first:first + len(rows)]
        if not shared or idx != list(range(first, first + len(rows))):
            src = np.empty((len(rows),) + grid.shape)
            calls += ([(stack.take, (np.array(idx), 0, src, "clip"))] if shared else
                      [(np.copyto, (src[k], s[i])) for k, (s, i) in enumerate(rows)])
        calls += [(np.subtract, views) for views in _stencil(src, out[at:at + len(rows)], axis - grid.ndim)]
        at += len(rows)
    if calls:
        scale, by = grid._stencil_scale
        calls.append((scale, (out, by, out)))
    return out, calls, offsets


def _linear_sum(out: np.ndarray, terms: list, tmp: np.ndarray) -> list:
    """The calls that leave the sum of ``terms``, ``(coefficient, array)``
    pairs, in ``out``, each product rounded and added in order, as the float
    kernel sums a linear form (bit for bit up to the sign of a zero; ``-a +
    b`` is ``b - a``).  ``tmp`` holds a product other than ±1 that is added."""
    if not terms:
        return []
    if len(terms) == 2 and terms[0][0] == -1 and terms[1][0] == 1:
        terms = terms[::-1]
    (c0, t0), rest = terms[0], terms[1:]
    if c0 == 1 and rest and abs(rest[0][0]) == 1:
        (c1, t1), rest = rest[0], rest[1:]
        calls = [(np.add if c1 > 0 else np.subtract, (t0, t1, out))]
    else:
        calls = [(np.copyto, (out, t0)) if c0 == 1 else (np.negative, (t0, out)) if c0 == -1
                 else (np.multiply, (t0, c0, out))]
    for c, t in rest:
        if abs(c) != 1:
            calls.append((np.multiply, (t, abs(c), tmp)))
            t = tmp
        calls.append((np.add if c > 0 else np.subtract, (out, t, out)))
    return calls


class _Flow:
    """The buffers and calls of the hamiltonian vector field of a model's
    chart (:func:`_flow_terms`), at the slot-major ``state``, shaped
    (nslots,) + grid.shape: ``diff_calls`` difference each needed (slot,
    axis) once, one stencil per axis; ``read_calls`` then sum the densities
    ``reads`` into ``reads``, and ``field_calls`` form each gradient row
    once, difference the rows in a second stage and sum the components of
    the slots ``outputs`` into ``field``."""

    def __init__(self, model: LatticeModel, outputs: tuple, reads: tuple = ()):
        fields, read_forms = _flow_terms(model.chart, model._slot_key, model._folded(None),
                                         tuple(outputs), tuple(reads))
        grid = model.grid
        self.state = np.empty((model.nslots,) + grid.shape)
        self.field = np.zeros((len(outputs),) + grid.shape)
        self.reads = np.zeros((len(reads),) + grid.shape)
        tmp = np.empty(grid.shape)
        used = list(dict.fromkeys(form for terms in fields for _, form, _ in terms))
        jets = {jet for form in used + list(read_forms) for _, jet in form}
        firsts = [sorted(j for j, a in jets if a == axis) for axis in range(grid.ndim)]
        d1, self.diff_calls, off1 = _stage(grid, [[(self.state, j) for j in js] for js in firsts])
        at = {(j, a): (self.state, j) if a is None else (d1, off1[a] + firsts[a].index(j)) for j, a in jets}
        rows = [form for form in used if len(form) > 1 or form[0][0] != 1]  # else a bare jet
        R = np.empty((len(rows),) + grid.shape)
        at.update({form: (R, p) for p, form in enumerate(rows)})
        arrays = {key: stack[i] for key, (stack, i) in at.items()}

        def key(form):  # a row of R, or the bare jet it is
            return form if form in at else form[0][1]

        def sums(out, form):
            return _linear_sum(out, [(c, arrays[jet]) for c, jet in form], tmp)

        self.read_calls = [call for r, form in enumerate(read_forms) for call in sums(self.reads[r], form)]
        calls = [call for form in rows for call in sums(arrays[form], form)]
        seconds = [list(dict.fromkeys(form for terms in fields for _, form, a in terms if a == axis))
                   for axis in range(grid.ndim)]
        d2, second_calls, off2 = _stage(grid, [[at[key(form)] for form in forms] for forms in seconds])
        calls += second_calls
        for k, terms in enumerate(fields):
            calls += _linear_sum(self.field[k], [
                (s, d2[off2[a] + seconds[a].index(form)] if a is not None else arrays[key(form)])
                for s, form, a in terms], tmp)
        self.field_calls = calls


# ---------------------------------------------------------------------------
# Electromagnetic evolution (flat metric, temporal gauge, leapfrog)
# ---------------------------------------------------------------------------

def _flat_em_model(grid: LatticeGrid) -> LatticeModel:
    return LatticeModel(TH.chart("em"), grid, bindings=TH.flat_metric_bindings(TH.builtin("em")))


def em_gauss(grid: LatticeGrid, F0: np.ndarray) -> np.ndarray:
    """The em chart's Gauss density of the flat metric at ``F0``, shaped
    grid.shape + (3,) as in :func:`evolve_em`, by :meth:`LatticeModel.evaluate`."""
    model = _flat_em_model(grid)
    return model.evaluate(dict(model.chart.constraints)["gauss"], {"F0": np.asarray(F0)})


def evolve_em(state: dict, grid: LatticeGrid, dt: float, steps: int):
    """Kick-drift-kick leapfrog of the em chart's hamiltonian flow in
    temporal gauge, with the flat metric, on a grid of three axes.

    ``A`` (potential) and ``F0`` (electric covector F_{0j}) are shaped
    grid.shape + (3,); A advances on integer steps, F0 on half steps.  The
    flow (:class:`_Flow`) holds copies of both, and a step is a fixed list
    of in-place numpy calls: drift A, difference A_{n+1} and F0_n in one
    stencil per axis, read the chart's Gauss density at step n, then form
    the force, F0_{n+1} and the kick.  Each F0 increment is a discrete
    divergence of an antisymmetric flux, so the Gauss density is conserved
    to roundoff.  Returns the final state, with F0 synchronized to the last
    step, and the max |Gauss density| at each step 0..steps.
    """
    if dt > grid.spacing:
        raise CFLError(f"dt = {dt} exceeds the grid spacing {grid.spacing}")
    model = _flat_em_model(grid)
    F0_slots = tuple(model.slot_index[("F0", comp)] for comp in model.field_comps["F0"])
    flow = _Flow(model, F0_slots, (dict(model.chart.constraints)["gauss"],))
    A, F0 = flow.state[:F0_slots[0]], flow.state[F0_slots[0]:]
    np.copyto(A, np.moveaxis(np.asarray(state["A"]), -1, 0))
    np.copyto(F0, np.moveaxis(np.asarray(state["F0"]), -1, 0))
    force, gauss_now = flow.field, flow.reads[0]
    half, tmp = np.empty_like(A), np.empty_like(A)
    _run(flow.diff_calls + flow.field_calls)
    np.add(F0, np.multiply(force, 0.5 * dt, out=tmp), out=half)
    read = [*flow.diff_calls, *flow.read_calls, (np.abs, (gauss_now, gauss_now))]
    drift = [(np.multiply, (half, dt, tmp)), (np.add, (A, tmp, A)), *read]
    kick = [*flow.field_calls, (np.multiply, (force, 0.5 * dt, tmp)), (np.add, (half, tmp, F0)),
            (np.multiply, (force, dt, tmp)), (np.add, (half, tmp, half))]
    gauss, peak = [], gauss_now.max
    for _ in range(steps):
        _run(drift)
        gauss.append(peak())
        _run(kick)
    _run(read)
    gauss.append(peak())
    return {"A": np.moveaxis(A, 0, -1), "F0": np.moveaxis(F0, 0, -1)}, np.array(gauss)


def divergence_free_em_data(grid: LatticeGrid, rng: np.random.Generator):
    """Random EM state whose electric field is a discrete curl, hence exactly
    divergence-free (flat metric): centered differences commute."""
    nd = grid.ndim
    if nd != 3:
        raise ValueError("divergence-free sampling via curl needs three axes")
    W = grid.smooth(rng.standard_normal(grid.shape + (3,)))
    F0 = np.zeros(grid.shape + (3,))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        F0[..., i] = grid.diff(W[..., k], j) - grid.diff(W[..., j], k)
    A = grid.smooth(rng.standard_normal(grid.shape + (3,)))
    return {"A": A, "F0": F0}


def _rk_evolve(z: np.ndarray, rhs, dt: float, steps: int, record: set, order: int) -> dict:
    """Non-symplectic Runge–Kutta stepping (midpoint for order 2, Kutta's
    third-order rule for order 3), recording the requested steps."""
    out = {0: z} if 0 in record else {}
    for n in range(1, steps + 1):
        k1 = rhs(z)
        if order == 2:
            z = z + dt * rhs(z + 0.5 * dt * k1)
        else:
            k2 = rhs(z + 0.5 * dt * k1)
            k3 = rhs(z + dt * (2.0 * k2 - k1))
            z = z + dt * (k1 + 4.0 * k2 + k3) / 6.0
        if n in record:
            out[n] = z
    return out


def symplectic_current_check(omega: TwoFormMatrix, X0: dict, Y0: dict,
                             step_a: int, step_b: int, dt: float) -> float:
    """omega_a(X, Y) - omega_b(X, Y), signed, for two linearized solutions of
    the scalar field on ``omega.model.grid`` (flat metric), paired by the
    2-form ``omega`` that the caller assembled (constant for this theory).

    In the continuum the pairing of two solutions of the linearized equations
    is time-independent.  The theory is linear, so the perturbations are
    solutions, evolved along the chart's hamiltonian vector field
    (:class:`_Flow`) by deliberately non-matched Runge-Kutta integrators
    (midpoint, and Kutta's third-order rule), each stage a new array.  A
    symplectic or a matched pair conserves a discrete pairing exactly on a
    linear system; the mismatched pair's defect is a second-order signal,
    vanishing as dt^2, the discrete shadow of the conservation law.  Its
    sign is kept: the dt^2 term and the next can cancel at coarse steps.
    """
    model = omega.model
    grid = model.grid
    if dt > grid.spacing:
        raise CFLError(f"dt = {dt} exceeds the grid spacing {grid.spacing}")
    flow = _Flow(model, tuple(range(model.nslots)))
    calls = flow.diff_calls + flow.field_calls

    def rhs(z):
        np.copyto(flow.state, z)
        _run(calls)
        return flow.field.copy()

    x, y = (np.stack([np.asarray(Z[k], float).reshape(grid.shape) for k in ("phi", "phi0")])
            for Z in (X0, Y0))
    record = {step_a, step_b}
    tx = _rk_evolve(x, rhs, dt, max(step_a, step_b), record, order=2)
    ty = _rk_evolve(y, rhs, dt, max(step_a, step_b), record, order=3)

    def pairing(step):
        xv, yv = (model.state_to_vector({"phi": z[0][..., None], "phi0": z[1][..., None]})
                  for z in (tx[step], ty[step]))
        return 0.5 * (float(np.sum(xv * omega.apply(yv))) - float(np.sum(yv * omega.apply(xv))))

    return pairing(step_a) - pairing(step_b)
