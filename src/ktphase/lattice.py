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
two wrapped end layers are overwritten; there are no rolled copies.  These
three subtractions are view triples (``_stencil``), which ``_diff_plan``
plans with the one division by ``2h``: the one definition of the centered
difference.  ``LatticeGrid.diff`` runs a one-shot plan into a new buffer,
and the steppers build theirs once over fixed buffers.  Axes of length 1 are
permitted as degenerate (ultralocal) directions: the centered difference
along them is identically zero, which realizes single-point and single-site
toy models.  The em leapfrog steps component-major arrays (one contiguous
block per component), differences each grid axis once over the components
that need it, forms each antisymmetric flux F_jl once for j < l and skips
the flux terms that vanish identically; it reproduces the site-major stencil
bit for bit.

Metrics: a :class:`LatticeModel` evaluates a chart under any background
binding, so a curved metric is a binding of ``hinv`` and ``rh``.  The
hand-written stencils that evolve em (``evolve_em``, ``em_gauss``) and the
linearized scalar field (``symplectic_current_check``) are for the flat
metric only.  Their differences are fixed lists of in-place numpy calls,
planned once per call, and their right-hand sides equal the vector field of
the chart's hamiltonian under flat bindings bit for bit (tested on three
grids).

Determinism: assembly and sampling loops are plain vectorized numpy with a
fixed reduction order, so results are bit-identical for a fixed seed.
Densities and their slot gradients run as kernels lowered once per process
and set of scalar bindings (:class:`Lowered`, the one float evaluator of
expressions; ``expr`` stays exact).  A scalar binding (a flat metric, Lambda)
is multiplied into the exact expression before it is lowered, which is exact
for a float, so a kernel's columns are arrays only.  Each term multiplies its
factors in the order of the exact term walk (``expr.evaluate``) of the folded
expression.  The terms of each output are summed by one numpy reduction: in
term order when the outputs of a kernel hold more than one value together,
pairwise when they hold one (a single output on a single-site grid).  So
multi-site grids reproduce the term walk bit for bit, and single-site sums
agree with it to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import expr as ex
from .calc_var import BoundaryChart
from .errors import CFLError, CheckFailure, UnboundVariableError
from .expr import Expr

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
        (exactly skew on the torus).

        ``axis`` indexes ``self.shape``: counted from the front when the grid
        axes lead ``arr``, from the end (negative) when components lead.  It
        runs a one-shot :func:`_diff_plan`, the stepper's plan, into a new
        buffer; along a length-1 axis the difference is zero.
        """
        out, calls = _diff_plan(self, np.asarray(arr), axis)
        _run(calls)
        return out

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
        """Periodic 3-point average along every grid axis (the leading axes
        of ``arr``); a length-1 axis is skipped, where the average is the
        array itself."""
        for axis, n in enumerate(self.shape):
            if n > 1:
                arr = (arr + np.roll(arr, 1, axis) + np.roll(arr, -1, axis)) / 3.0
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
    as long as the buffers do, so a stepper builds its triples once.
    """
    axis %= src.ndim
    inner = math.prod(src.shape[axis + 1:])
    flat, flat_out = src.reshape(-1), out.reshape(-1)
    return ((flat[2 * inner:], flat[:-2 * inner], flat_out[inner:-inner]),) + tuple(
        (src[plus], src[minus], out[at]) for at, plus, minus in _end_slices(axis))


def _diff_plan(grid: LatticeGrid, src: np.ndarray, axis: int) -> tuple:
    """A buffer for ``grid.diff(src, axis)`` and the calls that fill it from
    the current values of ``src``, a view that lives as long as the plan:
    ``(ufunc, args)`` pairs that copy a non-contiguous ``src`` into a
    contiguous stage, subtract the :func:`_stencil` triples and divide once
    by ``2h`` (:attr:`LatticeGrid._stencil_scale`).  Along a length-1 axis
    the buffer holds zeros and there is nothing to run."""
    if grid.shape[axis] == 1:
        return np.zeros_like(src), []
    out = np.zeros(src.shape, np.result_type(src, 1.0))
    calls = []
    if not src.flags.c_contiguous:
        stage = np.empty(src.shape, src.dtype)
        calls.append((np.copyto, (stage, src)))
        src = stage
    scale, by = grid._stencil_scale
    calls += [(np.subtract, views) for views in _stencil(src, out, axis)]
    calls.append((scale, (out, by, out)))
    return out, calls


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
    expression before it is lowered (:meth:`LatticeModel.evaluate`).  The
    run fills every other row: ones (row 0), zeros, one row per function factor (its
    argument lowered over the same table), one per power other than 1 of a
    column or factor, and one per term.  It returns one row per lowered
    expression.  Each term multiplies its coefficient and factors in the
    order of the term walk, as floats.  ``fns`` binds every function factor,
    sqrt included, to a numpy-aware callable.
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
    unfolded.
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
        """The scalar bindings a call folds: those its ``smear`` does not hold."""
        return tuple(kv for kv in self._scalars if kv[0] not in (smear or ()))

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
            table[rows] = np.moveaxis(state[name][..., comps], -1, 0)
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

    def evaluate(self, e: Expr, state: dict, smear: dict | None = None) -> np.ndarray:
        """Evaluate an expression to a float array over grid sites.

        The expression is lowered once per process and set of scalar
        bindings, which are folded into it; its jet columns are bound to grid
        arrays and the lowered kernel runs over them.
        """
        return self._run(_density_kernel(e, self._folded(smear)), state, smear)[0]

    def density_gradient(self, e: Expr, state: dict, smear: dict | None = None) -> np.ndarray:
        """Gradient of ``sum_sites density * cellvol`` w.r.t. the state.

        Exact polynomial differentiation of the density with its scalar
        bindings folded in, lowered once per density, slot layout and set of
        scalar bindings, then the transposed stencil of each jet's derivative
        indices.  Shape (nsites, nslots).
        """
        grad = _gradient_kernel(e, self._slot_key, self._folded(smear))
        out = np.zeros((self.grid.nsites, self.nslots))
        if not grad.slots.size:
            return out
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
        return out


def _fold(e: Expr, scalars: tuple) -> Expr:
    """``e`` with the scalar bindings ``scalars``, ``((name, comp), value)``
    pairs, multiplied into its coefficients.  This is exact: a float is a
    dyadic rational, and a derivative of a bound symbol is zero.  A zero
    under a negative power raises ZeroDivisionError, naming the symbol."""
    values = dict(scalars)

    def image(v, k):
        if (v.field, v.comp) not in values:
            return v
        value = 0.0 if v.deriv else values[(v.field, v.comp)]
        if k < 0 and not value:
            raise ZeroDivisionError(f"{ex.to_text(Expr.var(v))} is bound to 0 under the power {k}")
        return Expr.const(Fraction(value) ** k)

    return ex._rewrite(e, image) if values else e


@lru_cache(maxsize=None)
def _density_kernel(e: Expr, scalars: tuple) -> Lowered:
    return Lowered((_fold(e, scalars),))


@dataclass(frozen=True)
class _Gradient:
    """The slot gradient of a density, lowered into one kernel.

    The kernel has one output per group: a chart slot and the derivative
    multi-index of a jet of that slot, whose ``gradient`` coefficient it
    evaluates.  ``derivs`` lists the groups per multi-index, whose transposed
    stencils apply after the kernel.  ``slots`` are the slots with a group,
    and ``layers[k]`` pairs positions in ``slots`` with each one's k-th
    group, in the density's jet order.
    """
    kernel: Lowered
    derivs: tuple
    slots: np.ndarray
    layers: tuple


@lru_cache(maxsize=None)
def _gradient_kernel(e: Expr, slots: tuple, scalars: tuple) -> _Gradient:
    """Fold ``scalars`` into ``e``, then derive and lower its slot gradient,
    once per density, slot layout and set of scalar bindings; only the
    lowered arrays are kept."""
    e = _fold(e, scalars)
    index = {key: j for j, key in enumerate(slots)}
    grad = ex.gradient(e)
    groups, coeffs = [], []
    for v in e.jet_vars():
        j = index.get((v.field, v.comp))
        if j is not None and v in grad:
            groups.append((j, v.deriv))
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
# Electromagnetic evolution (flat metric, temporal gauge, leapfrog)
# ---------------------------------------------------------------------------

def em_gauss(grid: LatticeGrid, F0: np.ndarray) -> np.ndarray:
    """Discrete Gauss density d_i F_0i of the flat metric; ``F0`` is shaped
    grid.shape + (ndim,), as in the state of :func:`evolve_em`."""
    out = np.zeros(grid.shape)
    for i in range(grid.ndim):
        out += grid.diff(F0[..., i], i)
    return out


@lru_cache(maxsize=None)
def _em_layout(ndim: int) -> tuple:
    """The flux pairs j < l of :class:`_EmLeapfrog`, in order, and per grid
    axis i the slices of the stacks differenced along i: the components A_l
    with l != i, and the fluxes whose pair holds i.  With at most three axes
    both are evenly spaced.  In both stacks, pair (j, l) sits at position
    l - 1 along j and at position j along l."""
    pairs = tuple((j, l) for j in range(ndim) for l in range(j + 1, ndim))

    def evenly(idx):
        if not idx:
            return slice(0, 0)
        return slice(idx[0], idx[-1] + 1, idx[1] - idx[0] if len(idx) > 1 else 1)

    return (pairs,
            tuple(evenly([c for c in range(ndim) if c != i]) for i in range(ndim)),
            tuple(evenly([p for p, pair in enumerate(pairs) if i in pair]) for i in range(ndim)))


class _EmLeapfrog:
    """The buffers and planned calls of one :func:`evolve_em` run.

    ``A`` and ``F0`` are the component-major arrays the plan reads, shaped
    (ndim,) + grid.shape; every other buffer and every view triple is built
    here, once.  :meth:`rhs` (the calls ``force_calls``) writes
    dF_0l/dt = d_i F_il of the flat metric at ``A`` into ``force``, and
    :meth:`max_gauss` (``gauss_calls``, which leave |d_i F_0i| in ``gauss``)
    reads the Gauss residual at ``F0``.

    Each grid axis i is differenced once over the components that need it:
    first the A_l with l != i (for 3 axes the slices ``1:``, ``::2`` and
    ``:-1``; the strided one is staged contiguously), which give every
    F_jl = d_j A_l - d_l A_j, then the F_jl whose pair holds i.  The zero
    terms d_l A_l and d_l F_ll are never formed, and d_l F_lj enters as
    -d_l F_jl (exact).  Taking the pairs in order sums each component's flux
    terms in increasing i, from zero.
    """

    def __init__(self, grid: LatticeGrid, A: np.ndarray, F0: np.ndarray):
        pairs, a_parts, f_parts = _em_layout(grid.ndim)
        self.force = np.zeros_like(A)
        flux = np.empty((len(pairs),) + grid.shape)
        dA, calls = self._diffs(grid, A, a_parts)
        calls += [(np.subtract, (dA[j][l - 1], dA[l][j], flux[p])) for p, (j, l) in enumerate(pairs)]
        dF, more = self._diffs(grid, flux, f_parts)
        calls += more + [(np.copyto, (self.force, 0.0))]
        for j, l in pairs:
            calls += [(np.add, (self.force[l], dF[j][l - 1], self.force[l])),
                      (np.subtract, (self.force[j], dF[l][j], self.force[j]))]
        self.force_calls = calls
        self.gauss = np.zeros(grid.shape)
        calls = [(np.copyto, (self.gauss, 0.0))]
        for i in range(grid.ndim):
            d, more = _diff_plan(grid, F0[i], i)
            calls += more + [(np.add, (self.gauss, d, self.gauss))]
        self.gauss_calls = calls + [(np.abs, (self.gauss, self.gauss))]

    @staticmethod
    def _diffs(grid, stack, parts) -> tuple:
        """Per grid axis i, the buffer of the difference of ``stack[parts[i]]``
        along i, and the calls of all of them."""
        bufs, calls = [], []
        for i, part in enumerate(parts):
            out, more = _diff_plan(grid, stack[part], i - grid.ndim)
            bufs.append(out)
            calls += more
        return bufs, calls

    def rhs(self) -> None:
        _run(self.force_calls)

    def max_gauss(self) -> float:
        _run(self.gauss_calls)
        return float(np.max(self.gauss))


def evolve_em(state: dict, grid: LatticeGrid, dt: float, steps: int):
    """Kick-drift-kick leapfrog of Maxwell's equations in temporal gauge,
    with the flat metric.

    State fields: ``A`` (potential, lower index) and ``F0`` (electric
    covector F_{0j}); both shaped grid.shape + (ndim,).  A advances on
    integer steps, F0 on half steps; each F0 increment is a discrete
    divergence of an antisymmetric flux, so the Gauss density is conserved
    to roundoff.  The leapfrog runs on component-major copies, shaped
    (ndim,) + grid.shape, so each component is a contiguous block for the
    stencil.  Every buffer and view is built once per call
    (:class:`_EmLeapfrog`); a step, the Gauss read included, is a fixed list
    of in-place numpy calls.  A curved metric is a binding of
    :class:`LatticeModel` on the em chart, not a parameter here.  Returns
    the final state (site-major views of the component-major arrays), with
    F0 synchronized to the last step, and the max Gauss residual at each
    step 0..steps.
    """
    if dt > grid.spacing:
        raise CFLError(f"dt = {dt} exceeds the grid spacing {grid.spacing}")
    A, F0 = (np.array(np.moveaxis(np.asarray(state[k]), -1, 0), float, order="C") for k in ("A", "F0"))
    em = _EmLeapfrog(grid, A, F0)
    force, half, tmp = em.force, np.empty_like(A), np.empty_like(A)
    gauss = [em.max_gauss()]
    em.rhs()
    np.add(F0, np.multiply(force, 0.5 * dt, out=tmp), out=half)
    drift = [(np.multiply, (half, dt, tmp)), (np.add, (A, tmp, A)), *em.force_calls,
             (np.multiply, (force, 0.5 * dt, tmp)), (np.add, (half, tmp, F0)), *em.gauss_calls]
    kick = [(np.multiply, (force, dt, tmp)), (np.add, (half, tmp, half))]
    for _ in range(steps):
        _run(drift)
        gauss.append(float(np.max(em.gauss)))
        _run(kick)
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


def _scalar_rhs(grid: LatticeGrid):
    """The right-hand side of the linearized scalar field of the flat metric
    on ``grid``: ``rhs(z)``, for ``z`` stacking (phi, phi0), returns a new
    array stacking (phi0, sum_j d_j d_j phi).  Each call copies phi into a
    buffer and runs calls planned once, through fixed buffers, over it."""
    phi, wave = np.empty(grid.shape), np.zeros(grid.shape)
    calls = [(np.copyto, (wave, 0.0))]
    for j in range(grid.ndim):
        d, first = _diff_plan(grid, phi, j)
        dd, second = _diff_plan(grid, d, j)
        calls += first + second + [(np.add, (wave, dd, wave))]

    def rhs(z):
        np.copyto(phi, z[0])
        _run(calls)
        out = np.empty_like(z)
        out[0] = z[1]
        out[1] = wave
        return out

    return rhs


def symplectic_current_check(omega: TwoFormMatrix, X0: dict, Y0: dict,
                             step_a: int, step_b: int, dt: float) -> float:
    """omega_a(X, Y) - omega_b(X, Y), signed, for two linearized solutions of
    the scalar field on ``omega.model.grid`` (flat metric), paired by the
    2-form ``omega`` that the caller assembled (constant for this theory).

    In the continuum the pairing of two solutions of the linearized equations
    is time-independent.  The scalar theory is linear, so the
    perturbations are themselves solutions; they are evolved here with
    deliberately non-matched Runge-Kutta integrators (midpoint for one,
    Kutta's third-order rule for the other).  A symplectic integrator, or
    even a matched pair of identical RK maps, conserves a discrete pairing
    exactly on a linear system and leaves nothing to measure; with the
    mismatched pair the defect is a genuine second-order signal that
    vanishes as dt^2 under refinement, which is the discrete shadow of the
    conservation law.  The sign is kept: the leading dt^2 term and the next
    one can cancel at coarse steps, so the defect may change sign there.
    Both integrators call one right-hand side (``_scalar_rhs``), whose
    differences run through buffers planned once per call; every stage and
    every step is a new array, so a recorded step aliases no buffer.
    """
    model = omega.model
    grid = model.grid
    if dt > grid.spacing:
        raise CFLError(f"dt = {dt} exceeds the grid spacing {grid.spacing}")

    rhs = _scalar_rhs(grid)

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
