"""Built-in theory corpus and its derived golden structures.

Five theories anchor the pipeline end to end:

* ``mechanics`` — a point particle, ``L = m q'^2 / 2 - V(q)``;
* ``length``    — the euclidean length of a regular path in R^3 (degenerate);
* ``scalar``    — a free scalar field with split metric (d = 2);
* ``em``        — Maxwell theory with split metric (d = 4);
* ``pc4``       — four-dimensional coframe (first-order) gravity with
                  cosmological constant, internal metric diag(-1,1,1,1).

The Lagrangians live only in the shipped theory files
``theories_data/<name>.theory``: :func:`builtin` parses the file, so a
builtin is exactly what ``ktphase derive path/to/<name>.theory`` reads.  Each
theory is derived once per process (``derived_split``).  Its boundary chart
is read off that derivation (``calc_var.derived_chart``), in temporal gauge
for ``em`` (``A[0] -> 0``, ``A0 -> F0``, with the electric-field momentum
declared), while ``length`` declares its chart (a unit vector on a surface,
not an affine map); ``calc_var.verify_chart`` checks both exactly against
the derivation.  The gauge data of em and pc4 are plain expressions, which
the lattice evaluates like any density: ``gauge_direction`` (chart slot ->
motion) and ``constraint_set`` (family -> smeared density).  Only the
``pc_*`` float helpers import numpy and ``lattice``, when called, so
deriving a theory or building its chart loads neither.  The coframe-gravity
chart keeps the six-per-point kernel of its 2-form (connection shifts
annihilated by the coframe); the lattice reports it as kernel data, not
quotienting.

Sign conventions per theory, recorded because each is a genuine choice:
the equation-of-motion densities follow the classical form (kinetic term
positive); the boundary 1-form of the mechanical examples lives on the upper
(outgoing) end of the transversal coordinate, the field theories quote the
incoming copy for the scalar field and electromagnetism and the outgoing one
for coframe gravity; smeared constraints are normalized so that their
hamiltonian vector fields are the textbook gauge directions of
``gauge_direction`` (gauge transformations move only the potential,
internal rotations act as ``c . e`` on the coframe).
"""

from __future__ import annotations

from functools import lru_cache

from . import expr as ex
from .calc_var import (
    BoundaryChart,
    BoundarySplit,
    ChartField,
    LocalVarForm,
    TheorySpec,
    derived_chart,
    ibp_split,
    variation,
)
from .errors import CheckFailure
from .expr import Expr, JetVar, SymbolMeta
from .pointlin import ETA, PForm, canonical_eps, structural_maps

__all__ = [
    "THEORY_NAMES",
    "builtin",
    "derived_split",
    "chart",
    "gauge_direction",
    "constraint_set",
    "flat_metric_bindings",
    "pc_on_surface_state",
]

THEORY_NAMES = ("mechanics", "length", "scalar", "em", "pc4")
_SLICE_META = SymbolMeta(excluded=frozenset({0}))  # a chart symbol, restricted to the slice


# ---------------------------------------------------------------------------
# length functional
# ---------------------------------------------------------------------------

def _length_chart() -> BoundaryChart:
    u = [JetVar("u", (i,), (), _SLICE_META) for i in range(3)]
    q0 = [JetVar("q0", (i,), (), _SLICE_META) for i in range(3)]
    speed = ex.sqrt(ex.esum(Expr.var(w) ** 2 for w in q0))
    momenta = tuple((("u", (i,)), Expr.var(q0[i]) * speed ** (-1)) for i in range(3))
    alpha = LocalVarForm(1, (((JetVar("q", (i,), (), _SLICE_META),), Expr.var(u[i])) for i in range(3)))
    surface = (ex.esum(Expr.var(w) ** 2 for w in u) - 1,)
    return BoundaryChart(theory="length", tangential=(),
                         fields=(ChartField("q", tuple((i,) for i in range(3))),
                                 ChartField("u", tuple((i,) for i in range(3)))),
                         alpha=alpha, momenta=momenta, constraints=(), surface=surface,
                         hamiltonian=Expr.const(0))


# ---------------------------------------------------------------------------
# electromagnetism (split metric, d = 4)
# ---------------------------------------------------------------------------

def _em_chart(t: TheorySpec) -> BoundaryChart:
    # in temporal gauge the momentum F0[j] = A0[j] - d[j]A[0] is A0[j]; that the
    # images depend on A0 and A[0] only through F0 is what verify_chart checks
    tang = t.tangential()
    meta = SymbolMeta(excluded=frozenset({0}))
    gauge = {("A", (0,)): Expr.const(0)}
    gauge.update((("A0", (j,)), Expr.var(JetVar("F0", (j,), (), meta))) for j in tang)
    fix = lambda e: ex.substitute(e, gauge, t.jet_order + 1)
    derived = derived_chart(derived_split(t))
    (_, gauss), = derived.constraints
    momenta = tuple((("F0", (j,)),
                     Expr.var(JetVar("A0", (j,), (), meta)) - Expr.var(JetVar("A", (0,), (j,), meta)))
                    for j in tang)
    return BoundaryChart(theory="em", tangential=tang,
                         fields=(ChartField("A", tuple((j,) for j in tang)),
                                 ChartField("F0", tuple((j,) for j in tang))),
                         alpha=derived.alpha.map_coeffs(fix), momenta=momenta,
                         constraints=(("gauss", fix(gauss)),), surface=(),
                         hamiltonian=fix(derived.hamiltonian))


# ---------------------------------------------------------------------------
# public accessors
# ---------------------------------------------------------------------------

def _builtin_data(name: str, path: str) -> str:
    """The text of a package data file that belongs to builtin ``name``."""
    if name not in THEORY_NAMES:
        raise KeyError(f"unknown builtin theory {name!r}")
    import importlib.resources as res
    return res.files("ktphase").joinpath(path).read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def golden(name: str) -> dict:
    """The stored golden record of a builtin theory.

    Records hold the expected canonical renderings of the derivation (field
    equations, boundary 1- and 2-forms, constraints), the kernel data, and
    the lattice targets with their tolerances; entries are tagged with their
    provenance in the ``notes`` field.  Every expected expression parses and
    re-normalizes to itself (checked by the test suite).
    """
    import json
    return json.loads(_builtin_data(name, f"golden/{name}.json"))


@lru_cache(maxsize=None)
def builtin(name: str) -> TheorySpec:
    """One of the built-in theories: its shipped ``theories_data/<name>.theory``."""
    from .cli import parse_theory
    return parse_theory(_builtin_data(name, f"theories_data/{name}.theory"))


@lru_cache(maxsize=None)
def derived_split(t: str | TheorySpec) -> BoundarySplit:
    """The split of a theory's variation, derived once per process; a builtin
    name and its spec share one entry.  The entry also keeps the split's
    extracted constraints (``BoundarySplit.constraints``), so ``cache_clear``
    drops them with it."""
    if isinstance(t, str):
        return derived_split(builtin(t))
    return ibp_split(variation(t), t)


@lru_cache(maxsize=None)
def chart(name: str) -> BoundaryChart:
    """The boundary chart of a builtin: derived from its split, in temporal
    gauge for ``em``, and declared for ``length``."""
    t = builtin(name)
    if name == "length":
        return _length_chart()
    if name == "em":
        return _em_chart(t)
    return derived_chart(derived_split(name))


def flat_metric_bindings(t: TheorySpec) -> dict:
    """Numeric bindings for the split-metric backgrounds: flat h."""
    out = {}
    for i in t.tangential():
        for j in t.tangential():
            if i <= j:
                out[("hinv", (i, j))] = 1.0 if i == j else 0.0
    out["rh"] = 1.0
    return out


# ---------------------------------------------------------------------------
# Gauge directions and smeared constraint families
# ---------------------------------------------------------------------------

# Overall signs of the smeared constraint functionals relative to the
# extracted densities, pinned numerically so the hamiltonian vector fields
# come out in their standard form: the internal-rotation generator acts on
# the coframe as +c.e, and the curvature generator moves it by +d_omega(mu)
# on the constraint surface.
PC_P_SIGN = -1
PC_T_SIGN = 1

_PC_IPAIRS = tuple((a, b) for a in range(4) for b in range(a + 1, 4))
_SMEAR_META = SymbolMeta(background=True)


def _sym(name: str, comp: tuple, meta: SymbolMeta = _SMEAR_META) -> Expr:
    return Expr.var(JetVar(name, comp, (), meta))


@lru_cache(maxsize=None)
def gauge_direction(name: str) -> dict:
    """Chart slot ``(field, comp)`` -> its motion along the gauge direction of
    a builtin, over chart and smearing symbols (none without gauge): em's
    ``A[j] -> d[j]lam``, pc4's ``e[a,i] -> sum_{r != a} eta_r c^{ar} e[r,i]``
    with ``c`` antisymmetric and stored for ``a < r``."""
    if name in ("mechanics", "length", "scalar"):
        return {}
    if name == "em":
        meta = SymbolMeta(background=True, excluded=frozenset({0}))
        return {("A", (j,)): Expr.var(JetVar("lam", (), (j,), meta)) for j in builtin("em").tangential()}
    if name == "pc4":
        c = lambda a, r: _sym("c", (a, r)) if a < r else -_sym("c", (r, a))
        e = lambda r, i: _sym("e", (r, i), _SLICE_META)
        return {("e", (a, i)): ex.esum(c(a, r) * e(r, i) * ETA[r] for r in range(4) if r != a)
                for a in range(4) for i in builtin("pc4").tangential()}
    raise KeyError(name)


def _alpha_along(ch: BoundaryChart, direction: dict) -> Expr:
    """``alpha(X)``: the sum of ``X[g] c`` over the terms ``c delta(g)`` of alpha."""
    return ex.esum(direction[(g.field, g.comp)] * c for (g,), c in ch.alpha.terms
                   if (g.field, g.comp) in direction)


def _smeared(symbol: str, pairs, sign: int) -> Expr:
    """``sign * sum symbol[comp] * density`` over ``(comp, density)`` pairs."""
    return ex.esum(_sym(symbol, comp) * d for comp, d in pairs) * sign


@lru_cache(maxsize=None)
def constraint_set(name: str) -> dict:
    """The smeared constraint families of a builtin, name -> density over
    chart and smearing symbols, built once per process so the lattice kernels
    lowered from them are found by identity.  em's ``J`` is ``alpha(X_lam)``
    along the gauge direction; its site sum is minus that of ``lam`` times
    the Gauss density, by summation by parts of the centered stencils.  pc4
    smears its torsion densities (``P``) and its curvature ones (``T``, the
    ``e[0,0]`` entry ``H``, and ``Pxi``, contracted with the coframe)."""
    if name in ("mechanics", "length", "scalar"):
        return {}
    if name == "em":
        return {"J": _alpha_along(chart("em"), gauge_direction("em"))}
    if name == "pc4":
        cons = dict(chart("pc4").constraints)
        curv = [cons[f"e[{a},0]"] for a in range(4)]
        e = lambda a, i: _sym("e", (a, i), _SLICE_META)
        return {
            "P": _smeared("c", [((a, b), cons[f"omega[{a},{b},0]"]) for a, b in _PC_IPAIRS], PC_P_SIGN),
            "T": _smeared("mu", [((a,), curv[a]) for a in range(4)], PC_T_SIGN),
            "H": _smeared("lam", [((), curv[0])], PC_T_SIGN),
            "Pxi": _smeared("xi", [((i,), e(a, i) * curv[a]) for a in range(4) for i in (1, 2, 3)], PC_T_SIGN),
        }
    raise KeyError(name)


_PC_OM_COMPS = tuple((a, b, i) for a in range(4) for b in range(a + 1, 4) for i in (1, 2, 3))
# chart connection component (a, b, i) -> index in pointlin's I-major (1,2)-form basis
_PC_V_COLUMNS = [(i - 1) * len(_PC_IPAIRS) + _PC_IPAIRS.index((a, b)) for a, b, i in _PC_OM_COMPS]


@lru_cache(maxsize=None)
def _pc_structural_tables():
    """``pointlin.structural_maps`` of the unit coframes with the canonical
    eps, as float arrays: (12, 18, 18) for ``2 m_v`` in the chart's
    connection column order, and (12, 18, 12) for ``m_s``; the unit
    ``e^a_i`` is slice ``3 * a + i``, the layout of ``E.reshape(12)``."""
    import numpy as np
    eps = canonical_eps()
    tv, ts = [], []
    for a in range(4):
        for i in range(3):
            m_v, m_s = structural_maps(PForm(1, 1, {((i,), (a,)): 1}), eps)
            tv.append(2 * np.array(m_v, dtype=float)[:, _PC_V_COLUMNS])
            ts.append(np.array(m_s, dtype=float))
    return np.array(tv), np.array(ts)


def pc_structural_rows(E: np.ndarray) -> np.ndarray:
    """The structural constraint at a single site, as linear conditions on the
    connection.

    The constraint demands ``eps ^ (d_omega e) = e ^ sigma`` for some sigma;
    eliminating sigma leaves the projection of ``eps ^ torsion`` onto the
    cokernel of ``sigma -> e ^ sigma`` (six conditions for a metric
    nondegenerate coframe).  Both maps are ``pointlin.structural_maps`` of
    the coframe; they are linear in it, so they are contracted from the maps
    of the unit coframes.  Returns a (6, 18) matrix R with R . omega = 0 as
    the condition.  A sigma map that ``lattice.numerical_rank`` cuts below
    full rank is refused.
    """
    import numpy as np

    from .lattice import numerical_rank
    tv, ts = _pc_structural_tables()
    e = np.asarray(E, dtype=float).reshape(12)
    U, sv, _ = np.linalg.svd(np.tensordot(e, ts, 1))
    if numerical_rank(sv) < sv.size:
        raise CheckFailure("sigma-map degenerate: coframe not metric nondegenerate")
    # at a single site d_omega e = 2 omega.e: internal_act antisymmetrizes with
    # weight one, hence the factor 2 in the table
    return U[:, 12:].T @ np.tensordot(e, tv, 1)


def pc_random_coframe(rng: np.random.Generator) -> np.ndarray:
    """Rejection-sample a coframe block E[a, i] whose induced metric g has
    ``|det g| > 0.05`` and condition number below 50."""
    import numpy as np
    eta = np.array(ETA, float)
    while True:
        E = rng.standard_normal((4, 3))
        g = np.einsum("ai,a,aj->ij", E, eta, E)
        if abs(np.linalg.det(g)) > 0.05 and np.linalg.cond(g) < 50.0:
            return E


# the rows of the on-surface residual: torsion, then curvature constraints
_PC_SURFACE_NAMES = [f"omega[{a},{b},0]" for a, b in _PC_IPAIRS] + [f"e[{a},0]" for a in range(4)]


def _pc_surface(model) -> tuple:
    cons = dict(model.chart.constraints)
    return tuple(cons[n] for n in _PC_SURFACE_NAMES)


def _pc_surface_residual(model, state: dict, SR):
    """The ten constraint densities of a single-site state, one kernel with
    ten outputs, then the six structural conditions ``SR @ omega``."""
    import numpy as np
    return np.concatenate([model.evaluate(_pc_surface(model), state).reshape(10),
                           SR @ state["omega"].reshape(18)])


def pc_on_surface_state(model, rng: np.random.Generator) -> dict:
    """A random single-site state of coframe gravity on the Cauchy surface.

    Draws a metric-nondegenerate coframe, then Newton-solves for the
    connection, to a max residual below 1e-12 within 80 iterations: the six
    torsion constraints, the four curvature constraints, and the six
    structural-constraint conditions that select the unique connection
    representative.  Without the structural conditions the curvature
    family's hamiltonian vector fields do not exist (its kernel invariance
    genuinely fails), so they are part of what "on the constraint surface"
    means for bracket checks.  Each iteration runs two kernels, cached per
    process: the ten densities, and their ten slot gradients (the Jacobian's
    omega columns).
    """
    import numpy as np
    if model.grid.nsites != 1:
        raise ValueError("on-surface sampling is implemented for single-site grids")
    om_slots = [i for i, (f, _) in enumerate(model.slots) if f == "omega"]
    E = pc_random_coframe(rng)
    state = model.random_state(rng)
    state["e"] = E.reshape(state["e"].shape)
    state["omega"] *= 0.3
    SR = pc_structural_rows(E)
    w = model.grid.cell_volume()
    residual = np.inf
    for _ in range(80):
        r = _pc_surface_residual(model, state, SR)
        residual = float(np.max(np.abs(r)))
        if residual < 1e-12:
            return state
        J = np.concatenate([model.density_gradient(_pc_surface(model), state)[:, 0, om_slots] / w, SR])
        step, *_ = np.linalg.lstsq(J, -r, rcond=None)
        vec = model.state_to_vector(state)
        vec[0, om_slots] += step
        state = model.vector_to_state(vec)
    raise CheckFailure(f"constraint solve did not converge: residual {residual:.2e}")


def pc_surface_violation(model, state: dict) -> float:
    """Max violation of a single-site state: the constraint densities and
    the structural conditions."""
    import numpy as np
    r = _pc_surface_residual(model, state, pc_structural_rows(state["e"].reshape(4, 3)))
    return float(np.max(np.abs(r)))
