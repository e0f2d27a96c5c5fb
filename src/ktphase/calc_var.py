"""Variational pipeline: variation, integration by parts, boundary data.

Given a declarative theory (coordinates, fields, backgrounds, Lagrangian
density), this module computes the variation of the density, splits it by
integration by parts into field-equation densities plus boundary terms,
applies the vertical differential, restricts to the boundary slice, and
extracts the non-evolutionary (constraint) densities.

Conventions fixed here (recorded because the sign choices are not forced by
the mathematics alone):

* The split is written ``variation = -sum(el_A * delta(phi_A))
  + sum_i D_i(div_i) + D_n(alpha_density)``, so the reported ``el`` densities
  match the classical equation-of-motion form (e.g. ``m q'' + V'(q)``).
* ``alpha_density`` is the density whose transversal total derivative appears
  in the split, i.e. the boundary term at the upper end of the transversal
  coordinate.  Each theory declares which boundary copy its canonical
  boundary 1-form lives on via ``boundary_side`` (+1 upper / outgoing,
  -1 lower / incoming); the returned ``alpha`` is the restricted density times
  that sign.
* Integration by parts peels tangential derivative indices before the
  transversal one, so for first-order Lagrangians alpha carries only
  first-order transversal jet data.

All values are immutable; every function is pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property

from . import expr as ex
from .errors import CheckFailure, DegreeError, ParseError
from .expr import Context, Expr, JetVar, SymbolMeta

__all__ = [
    "FieldDecl",
    "BackgroundDecl",
    "TheorySpec",
    "LocalVarForm",
    "BoundarySplit",
    "BoundaryChart",
    "variation",
    "ibp_split",
    "vertical_delta",
    "boundary_restrict",
    "constraint_extract",
    "form_total_derivative",
    "reconstruction_defect",
    "derived_chart",
    "verify_chart",
]


@dataclass(frozen=True)
class FieldDecl:
    """A dynamical field: ``internal`` indices range over ``vdim`` of the
    theory, ``base`` indices over the coordinates.  ``antisym`` marks an
    antisymmetric pair of the first two internal indices: the Lagrangian
    uses only components whose pair is strictly increasing (checked).

    The attributes are the grammar of ``field`` lines: each int is a
    ``KEY=N`` attribute and each bool a flag word (``_`` written ``-``)."""
    name: str
    base: int = 0
    internal: int = 0
    antisym: bool = False
    positive: bool = False


@dataclass(frozen=True)
class BackgroundDecl:
    """A non-varied symbol.  ``base`` indices range over the coordinates;
    ``constant`` kills all total derivatives, ``time_independent`` only the
    transversal one.  The attributes are the grammar of ``background`` lines,
    as for :class:`FieldDecl`."""
    name: str
    base: int = 0
    constant: bool = False
    time_independent: bool = False
    positive: bool = False


@dataclass(frozen=True)
class TheorySpec:
    """Declarative description of a Lagrangian field theory.

    The Lagrangian is an expression over the declared symbols, fully expanded
    in components.  ``vdim`` is the size of the internal index range (defaults
    to the base dimension).  ``boundary_side`` records which boundary copy the
    theory's canonical Noether term refers to.
    """
    name: str
    dim: int
    coords: tuple
    transversal: int
    fields: tuple
    backgrounds: tuple = ()
    functions: tuple = ()
    lagrangian: Expr = ex.ZERO
    jet_order: int = ex.DEFAULT_MAX_JET_ORDER
    vdim: int = 0
    boundary_side: int = 1
    boundary_names: tuple = ()          # ((field, transversal order, symbol name), ...)

    def __post_init__(self):
        if len(self.coords) != self.dim:
            raise ParseError(f"dim {self.dim} but {len(self.coords)} coordinates")
        if not (0 <= self.transversal < self.dim):
            raise ParseError(f"transversal index {self.transversal} out of range")
        if self.vdim == 0:
            object.__setattr__(self, "vdim", self.dim)
        names = [d.name for d in self.fields + self.backgrounds] + list(self.functions) + ["sqrt"]
        for name in names:
            if names.count(name) > 1:
                raise ParseError(f"duplicate symbol declaration {name!r}", subject=name)
        for d in self.fields + self.backgrounds:
            for attr in ("base", "internal"):
                if getattr(d, attr, 0) < 0:
                    raise ParseError(f"negative index count {attr}={getattr(d, attr)} of {d.name!r}",
                                     subject=d.name)
        for f in self.fields:
            if f.antisym and f.internal < 2:
                raise ParseError(f"antisym field {f.name!r} needs two internal indices", subject=f.name)
        # a boundary symbol names one transversal jet on the slice (of a
        # field, or of a background that varies transversally), so it must
        # be new: restriction would merge it with another symbol
        keys = [(f, k) for f, k, _ in self.boundary_names]
        for i, (f, k) in enumerate(keys):
            at = ("boundary", i)  # the subject of an error: see ParseError
            if f not in {d.name for d in self.fields}:
                raise ParseError(f"boundary line names undeclared field {f!r}", subject=at)
            if not 1 <= k <= self.jet_order:
                raise ParseError(f"boundary order {k} of {f!r} outside 1..{self.jet_order}", subject=at)
            if (f, k) in keys[:i]:
                raise ParseError(f"second boundary name for order {k} of {f!r}", subject=at)
        renames = self.renames()
        moving = self.fields + tuple(b for b in self.backgrounds if not (b.constant or b.time_independent))
        seen = set()
        for d in moving:
            for k in range(1, self.jet_order + 1):
                sym = _boundary_name(d.name, k, renames)
                named = ("boundary", keys.index((d.name, k))) if (d.name, k) in keys else None
                if sym in names:
                    raise ParseError(f"boundary symbol {sym!r} is a declared name", subject=named or sym)
                if sym in seen:
                    raise ParseError(f"two transversal jets share the boundary symbol {sym!r}",
                                     subject=named or d.name)
                seen.add(sym)
        declared = self._declared_names()
        antisym = {f.name for f in self.fields if f.antisym}
        for v in self.lagrangian.jet_vars():
            if v.field not in declared:
                raise ParseError(f"Lagrangian uses undeclared symbol {v.field!r}")
            if v.order() > self.jet_order:
                raise ParseError(f"Lagrangian jet order exceeds declared maximum {self.jet_order}")
            if v.field in antisym and not v.comp[0] < v.comp[1]:
                raise ParseError(f"component {v.comp} of antisym field {v.field!r}: its first "
                                 "two internal indices must increase strictly")

    def _declared_names(self):
        return {f.name for f in self.fields} | {b.name for b in self.backgrounds}

    def tangential(self) -> tuple:
        return tuple(i for i in range(self.dim) if i != self.transversal)

    def renames(self) -> dict:
        return {(f, k): name for f, k, name in self.boundary_names}

    def field_meta(self, decl: FieldDecl) -> SymbolMeta:
        return SymbolMeta(positive=decl.positive)

    def background_meta(self, decl: BackgroundDecl) -> SymbolMeta:
        excluded = frozenset({self.transversal}) if decl.time_independent else frozenset()
        return SymbolMeta(background=True, constant=decl.constant,
                          excluded=excluded, positive=decl.positive)

    def index_sizes(self, decl) -> tuple:
        if isinstance(decl, FieldDecl):
            return (self.vdim,) * decl.internal + (self.dim,) * decl.base
        return (self.dim,) * decl.base

    def context(self) -> Context:
        ctx = Context(coords=self.coords, transversal=self.transversal)
        for f in self.fields:
            ctx.declare_field(f.name, self.index_sizes(f), self.field_meta(f))
        for b in self.backgrounds:
            ctx.declare_field(b.name, self.index_sizes(b), self.background_meta(b))
        for fn in self.functions:
            ctx.declare_function(fn)
        ctx.declare_function("sqrt")
        return ctx


# ---------------------------------------------------------------------------
# Local variational forms
# ---------------------------------------------------------------------------

class LocalVarForm:
    """A local form of vertical degree 0, 1, or 2.

    Terms map a sorted tuple of vertical generators (jet variables under the
    vertical differential) to an expression coefficient.  The constructor
    takes ``(generators, coefficient)`` pairs, in which a generator tuple may
    repeat: each tuple is sorted, with the sign of the wedge absorbed into
    its coefficient (a repeated generator makes the term vanish), and the
    coefficients of one tuple are summed with one ``esum``.
    """

    __slots__ = ("degree", "terms", "_hash")

    def __init__(self, degree: int, terms=()):
        if degree not in (0, 1, 2):
            raise DegreeError(f"vertical degree {degree} out of range")
        sums = {}
        for gens, coeff in terms:
            gens = tuple(gens)
            if len(gens) != degree:
                raise DegreeError("generator count does not match form degree")
            if degree == 2 and gens[1] < gens[0]:
                gens, coeff = gens[::-1], -coeff
            if len(set(gens)) < degree or coeff.is_zero():
                continue
            sums.setdefault(gens, []).append(coeff)
        summed = ((g, cs[0] if len(cs) == 1 else ex.esum(cs)) for g, cs in sums.items())
        self.degree = degree
        self.terms = tuple(sorted(((g, c) for g, c in summed if not c.is_zero()),
                                  key=lambda t: tuple(v.key for v in t[0])))
        self._hash = None

    @staticmethod
    def scalar(coeff: Expr) -> "LocalVarForm":
        return LocalVarForm(0, (((), coeff),))

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if self.degree != other.degree:
            raise DegreeError("cannot add forms of different degree")
        return LocalVarForm(self.degree, self.terms + other.terms)

    def __neg__(self):
        return LocalVarForm(self.degree, ((g, -c) for g, c in self.terms))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor) -> "LocalVarForm":
        factor = Expr._coerce(factor)
        return LocalVarForm(self.degree, ((g, c * factor) for g, c in self.terms))

    def map_coeffs(self, f) -> "LocalVarForm":
        return LocalVarForm(self.degree, ((g, f(c)) for g, c in self.terms))

    def __eq__(self, other):
        return isinstance(other, LocalVarForm) and self.degree == other.degree and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.degree, self.terms))
        return self._hash

    def _render(self, coeff_text, gens_text, sep: str) -> str:
        # a coefficient with several terms or a leading minus is parenthesized
        if not self.terms:
            return "0"
        parts = []
        for gens, coeff in self.terms:
            cs = coeff_text(coeff)
            if len(coeff.terms) > 1 or cs.startswith("-"):
                cs = "(" + cs + ")"
            parts.append(cs + sep + gens_text(gens) if gens else cs)
        return " + ".join(parts)

    def to_text(self, ctx: Context | None = None) -> str:
        return self._text(ctx, {})

    def _text(self, ctx: Context | None, names: dict) -> str:
        # ``names`` as in ``expr._text``: the text of each variable power met
        # so far in one rendering
        return self._render(lambda c: ex._text(c, ctx, names),
                            lambda gens: "^".join("δ(%s)" % ex._var_text(v, ctx) for v in gens),
                            " ")

    def to_latex(self, ctx: Context | None = None) -> str:
        return self._render(lambda c: ex.to_latex(c, ctx),
                            lambda gens: r"\,".join(r"\delta " + ex.var_latex(v, ctx) for v in gens),
                            r"\,")

    def __repr__(self):
        return f"LocalVarForm({self.degree}, {self.to_text()})"


def vertical_delta(v: LocalVarForm) -> LocalVarForm:
    """Vertical exterior derivative; nilpotent, skips background symbols.

    The unsummed partial terms of every coefficient (``expr._partial_terms``)
    go straight into one ``{monomial: coefficient}`` map per sorted
    generator tuple, negated where the new generator sorts after the old
    one; a repeated generator is skipped.  Each map is normalized once, so
    the sums that cancel (all of them, for the delta of a delta) are never
    normalized term by term.
    """
    if v.degree >= 2:
        raise DegreeError("vertical differential of a degree-2 form would exceed degree 2")
    sums = {}
    for gens, coeff in v.terms:
        for w, terms in ex._partial_terms(coeff, None, 0).items():
            if w.meta.background or w in gens:
                continue
            if not gens or w < gens[0]:
                ex._accumulate(sums.setdefault((w,) + gens, {}), terms)
            else:
                ex._accumulate(sums.setdefault(gens + (w,), {}), ((m, -c) for m, c in terms))
    return LocalVarForm(v.degree + 1, ((g, ex._resimplify(acc)) for g, acc in sums.items()))


def form_total_derivative(v: LocalVarForm, coord: int, max_order: int = ex.DEFAULT_MAX_JET_ORDER) -> LocalVarForm:
    """Total derivative of a local form: acts on coefficients and commutes
    past the vertical generators (bumping their jet index)."""
    pairs = []
    for gens, coeff in v.terms:
        pairs.append((gens, ex.total_derivative(coeff, coord, max_order)))
        pairs += ((gens[:i] + (w.with_deriv(coord, max_order),) + gens[i + 1:], coeff)
                  for i, w in enumerate(gens) if w.meta.depends_on(coord))
    return LocalVarForm(v.degree, pairs)


# ---------------------------------------------------------------------------
# Variation and integration by parts
# ---------------------------------------------------------------------------

def variation(t: TheorySpec) -> LocalVarForm:
    """The vertical differential of the Lagrangian density.

    Background symbols are not varied; the result is the degree-1 form
    ``sum_v dL/d(jet v) delta(v)`` over all dynamical jets in L.
    """
    return vertical_delta(LocalVarForm.scalar(t.lagrangian))


@dataclass(frozen=True)
class BoundarySplit:
    """Outcome of integrating the variation by parts.

    ``el`` maps underived field generators to equation-of-motion densities
    (sign convention in the module docstring).  ``alpha_density`` is the raw
    transversal boundary density (upper end); ``alpha`` is its boundary
    restriction times the theory's ``boundary_side``.  ``divergences`` records
    the dropped tangential total-divergence forms per coordinate, and
    ``variation`` the split form itself, so the reconstruction identity stays
    checkable.  ``theory`` is the split theory.  Its ``constraints`` and
    ``renderings`` are computed on first use and kept with the split.
    """
    el: tuple                      # ((JetVar, Expr), ...)
    alpha: LocalVarForm
    alpha_density: LocalVarForm
    divergences: tuple             # ((coord, LocalVarForm), ...)
    side: int
    variation: LocalVarForm
    theory: TheorySpec = field(compare=False, repr=False)

    @cached_property
    def constraints(self) -> tuple:
        """The ``constraint_extract`` pairs of the split."""
        return tuple(constraint_extract(self.theory, self))

    @cached_property
    def renderings(self) -> dict:
        """Canonical text of the derivation, keyed as in the golden records:
        field equations per component, boundary 1-form ``alpha``, its 2-form
        ``omega = delta(alpha)``, and the constraint densities."""
        ctx = self.theory.context()
        names = {}  # one variable-text memo for the whole rendering
        return {
            "el": {_component_name(w): ex._text(e, ctx, names) for w, e in self.el},
            "alpha": self.alpha._text(ctx, names),
            "omega": vertical_delta(self.alpha)._text(ctx, names),
            "constraints": {n: ex._text(d, ctx, names) for n, d in self.constraints},
        }


def ibp_split(v: LocalVarForm, t: TheorySpec) -> BoundarySplit:
    """Split a degree-1 variation into field equations plus boundary terms.

    Repeatedly peels one derivative index off each vertical generator,
    tangential indices first and the transversal index last.  The peeled-off
    pieces are total derivatives: tangential ones are recorded (they integrate
    to zero on a closed slice), the transversal one is the boundary density.
    """
    if v.degree != 1:
        raise DegreeError("ibp_split expects a degree-1 form")
    n = t.transversal
    el_pairs, alpha_pairs = [], []
    div_pairs: dict = {}
    queue = [(gens[0], coeff) for gens, coeff in v.terms]
    while queue:
        w, coeff = queue.pop()
        if coeff.is_zero():
            continue
        if not w.deriv:
            el_pairs.append(((w,), coeff))
            continue
        tangential = [i for i in w.deriv if i != n]
        peel = tangential[-1] if tangential else n
        reduced = list(w.deriv)
        reduced.remove(peel)
        w2 = JetVar(w.field, w.comp, tuple(reduced), w.meta)
        (alpha_pairs if peel == n else div_pairs.setdefault(peel, [])).append(((w2,), coeff))
        queue.append((w2, -ex.total_derivative(coeff, peel, t.jet_order)))
    # read as a 1-form, the field-equation pairs are summed per generator and ordered
    el = tuple((w, -c) for (w,), c in LocalVarForm(1, el_pairs).terms)
    alpha_density = LocalVarForm(1, alpha_pairs)
    sorted_divs = tuple(sorted((i, LocalVarForm(1, pairs)) for i, pairs in div_pairs.items()))
    restricted = boundary_restrict(alpha_density, t)
    alpha = restricted.scale(Expr.const(t.boundary_side))
    return BoundarySplit(el=el, alpha=alpha, alpha_density=alpha_density,
                         divergences=sorted_divs, side=t.boundary_side, variation=v, theory=t)


def reconstruction_defect(split: BoundarySplit) -> LocalVarForm:
    """variation - [ -sum el*delta + sum D_i(div_i) + D_n(alpha_density) ].

    Zero (as a normal form) for every well-formed split; exercised by tests.
    """
    t = split.theory
    pairs = list(split.variation.terms) + [((w,), c) for w, c in split.el]
    for i, form in split.divergences + ((t.transversal, split.alpha_density),):
        pairs += ((g, -c) for g, c in form_total_derivative(form, i, t.jet_order + 1).terms)
    return LocalVarForm(1, pairs)


# ---------------------------------------------------------------------------
# Boundary restriction
# ---------------------------------------------------------------------------

def boundary_restrict(x, t: TheorySpec):
    """Restrict an expression or local form to the boundary slice.

    Each transversal jet of order k becomes an independent boundary symbol,
    named by the theory's ``boundary_names`` or else with k zeros appended
    (phi' -> phi0); tangential jets survive unchanged, and every surviving
    symbol loses its transversal dependence.  The renaming is one
    ``expr.map_vars`` walk, which normalizes each expression once; within
    one call, the image of each variable is built once per key and
    metadata object, so variables of one key whose metadata differs keep
    their own images.
    """
    n = t.transversal
    names = t.renames()
    images = {}

    def f(v: JetVar) -> JetVar:
        w = images.get((v.key, v.meta))
        if w is None:
            k = v.deriv.count(n)
            meta = SymbolMeta(background=v.meta.background, constant=v.meta.constant,
                              excluded=v.meta.excluded | {n}, positive=v.meta.positive and k == 0)
            w = images[v.key, v.meta] = JetVar(_boundary_name(v.field, k, names), v.comp,
                                               tuple(i for i in v.deriv if i != n), meta)
        return w

    if isinstance(x, Expr):
        return ex.map_vars(x, f)
    if isinstance(x, LocalVarForm):
        return LocalVarForm(x.degree, ((tuple(f(w) for w in gens), ex.map_vars(c, f))
                                       for gens, c in x.terms))
    raise TypeError(f"cannot restrict {type(x).__name__}")


def _boundary_name(field: str, k: int, names: dict) -> str:
    """Boundary symbol of the order-``k`` transversal jet of ``field``, given
    the theory's ``renames()``."""
    return names.get((field, k), field + "0" * k) if k else field


# ---------------------------------------------------------------------------
# Constraint extraction
# ---------------------------------------------------------------------------

def _alpha_symbols(split: BoundarySplit) -> dict:
    """Boundary symbols (field name -> set of components) appearing in the
    restricted boundary density (``split.alpha`` up to its sign): the default
    chart of preboundary fields (see ``derived_chart``)."""
    syms = {}
    for gens, coeff in split.alpha.terms:
        for w in (*gens, *coeff.jet_vars()):
            if not w.meta.background:
                syms.setdefault(w.field, set()).add(w.comp)
    return syms


def _component_name(w: JetVar) -> str:
    """``field[i,j]`` name of a field component, ``field`` for a scalar."""
    return w.field + ("[" + ",".join(map(str, w.comp)) + "]" if w.comp else "")


def constraint_extract(t: TheorySpec, split: BoundarySplit | None = None) -> list:
    """Field equations that constrain boundary data instead of evolving it.

    An equation qualifies when its boundary restriction references only the
    boundary fields present in the restricted boundary density (plus their
    tangential jets and backgrounds) — i.e. no transversal jets beyond the
    declared boundary fields.  Returns ``(name, density on the slice)`` pairs.

    The decision reads the boundary symbol of each variable of the equation
    (``_boundary_name``), and only the equations that qualify are restricted
    (``boundary_restrict``, one normalization each).  ``TheorySpec`` gives
    the transversal jets of fields and moving backgrounds distinct new
    symbols, so the restricted density holds exactly the symbols read.
    """
    if split is None:
        split = ibp_split(variation(t), t)
    allowed = _alpha_symbols(split)
    n, names = t.transversal, t.renames()
    out = []
    for w, density in split.el:
        if all(u.meta.background or _boundary_name(u.field, u.deriv.count(n), names) in allowed
               for u in density.jet_vars()):
            out.append((_component_name(w), boundary_restrict(density, t)))
    return out


# ---------------------------------------------------------------------------
# Boundary charts (derived, or declared and verified against the pipeline)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChartField:
    """One field of the reduced boundary chart: a name plus the list of
    component tuples realized on the lattice, in a fixed order."""
    name: str
    comps: tuple


@dataclass(frozen=True)
class BoundaryChart:
    """Coordinates on the boundary phase space of a theory.

    By default a chart is derived: ``derived_chart`` reads the preboundary
    fields, the boundary 1-form and the constraints off the split.  Symbolic
    reduction (inverting momenta, dropping pure-gauge directions) is out of
    scope for the pipeline, so a theory whose chart changes coordinates
    declares it: the chart fields, the boundary 1-form and constraint
    densities written in them, the defining expressions of the momenta in
    preboundary symbols, and any algebraic surface the chart lives on.
    ``verify_chart`` checks either kind against the derived split exactly.
    """
    theory: str
    fields: tuple                       # ChartField, lattice layout order
    alpha: LocalVarForm                 # over chart symbols
    tangential: tuple = ()              # theory coordinate indices of the slice axes
    momenta: tuple = ()                 # ((field, comp), defining Expr) pairs
    constraints: tuple = ()             # (name, Expr over chart symbols)
    surface: tuple = ()                 # algebraic chart constraints (Expr)
    hamiltonian: Expr | None = None

    def momenta_map(self) -> dict:
        return {key: img for key, img in self.momenta}

    # the generated hash would rehash every expression of the chart on each
    # call (``lattice`` keys caches by chart); the chart is immutable, so
    # its hash is taken once
    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(tuple(getattr(self, f.name) for f in fields(self)))


def derived_chart(split: BoundarySplit) -> BoundaryChart:
    """The chart of preboundary fields, read off the split of a theory with
    no change of coordinates.

    The fields are the symbols of ``split.alpha``, ordered by field
    declaration and then by transversal order, with their components in
    lexicographic order (this fixes the lattice slot layout), and the
    constraints are those of ``split``.  The hamiltonian is the
    restricted canonical energy ``sum c D_n(g) - L`` over the terms
    ``c delta(g)`` of ``alpha_density``, times ``boundary_side``; it is
    ``None`` when a restricted symbol of ``L`` is not a chart slot (a
    transversal component acting as a multiplier, say), which is decided
    before the energy is expanded.
    """
    t = split.theory
    n, names = t.transversal, t.renames()
    order = {_boundary_name(f.name, k, names): (i, k)
             for i, f in enumerate(t.fields) for k in range(t.jet_order + 1)}
    syms = _alpha_symbols(split)
    fields = tuple(ChartField(name, tuple(sorted(syms[name])))
                   for name in sorted(syms, key=order.__getitem__))
    hamiltonian = None
    if all(v.comp in syms.get(_boundary_name(v.field, v.deriv.count(n), names), ())
           for v in t.lagrangian.jet_vars() if not v.meta.background):
        energy = ex.esum(c * Expr.var(g.with_deriv(n, t.jet_order))
                         for (g,), c in split.alpha_density.terms) - t.lagrangian
        hamiltonian = boundary_restrict(energy, t) * Expr.const(t.boundary_side)
    return BoundaryChart(theory=t.name, fields=fields, alpha=split.alpha,
                         tangential=t.tangential(), constraints=split.constraints,
                         hamiltonian=hamiltonian)


def verify_chart(chart: BoundaryChart, split: BoundarySplit) -> None:
    """Exact check that the declared chart reproduces the derived boundary data.

    Substituting the momenta definitions into the declared boundary 1-form
    must reproduce the restricted pipeline density (theory side applied); the
    declared constraint densities must likewise match the constraints of
    ``split``, up to sign.  Raises CheckFailure on any mismatch.
    """
    t, extracted = split.theory, split.constraints
    images = chart.momenta_map()
    subst = lambda e: ex.substitute(e, images, t.jet_order + 1)
    declared_alpha = chart.alpha.map_coeffs(subst)
    declared_alpha = LocalVarForm(1, ((tuple(_subst_gen(w, images) for w in gens), c)
                                      for gens, c in declared_alpha.terms))
    if declared_alpha != split.alpha:
        raise CheckFailure(
            f"chart alpha for {chart.theory!r} does not match the derived boundary density:\n"
            f"  declared: {declared_alpha.to_text()}\n  derived:  {split.alpha.to_text()}")
    if len(extracted) != len(chart.constraints):
        raise CheckFailure(f"{chart.theory!r}: {len(chart.constraints)} declared constraints, "
                           f"{len(extracted)} extracted")
    for (name, declared), (ename, density) in zip(chart.constraints, extracted):
        lhs = subst(declared)
        if lhs != density and lhs != -density:
            raise CheckFailure(f"constraint {name!r} of {chart.theory!r} does not match "
                               f"extracted density {ename!r}")


def _subst_gen(w: JetVar, images: dict) -> JetVar:
    # Vertical generators of momenta never appear in declared alphas with a
    # nontrivial image (the chart is a coordinate system), so generators pass
    # through untouched.
    if (w.field, w.comp) in images:
        raise CheckFailure(f"chart alpha has a vertical generator {w.field}{w.comp} that is "
                           "itself a declared momentum; charts must use base coordinates there")
    return w
