"""Exact-rational symbolic expressions over jet variables.

Expressions are normalized sums of monomials; a monomial is a rational
coefficient times a product of integer powers of jet variables and of applied
scalar functions.  The normal form is canonical: two expressions are equal as
functions of the jet variables exactly when their normal forms are identical,
so all downstream derivations (variations, integration by parts, boundary
restriction) reduce to syntactic identities.

Design constraints honoured here:

* coefficients are `fractions.Fraction`; no floating point ever enters the
  symbolic layer, which imports no numpy (expressions over grid arrays run
  as float kernels lowered by ``lattice.Lowered``);
* monomials are kept sorted under a fixed total order (lexicographic on
  ``(field, component, derivative multi-index)``), so rendered output is
  byte-stable;
* `sqrt` is the only irrational built-in; ``sqrt(x)^2 -> x`` fires only when
  the argument is certifiably nonnegative (structurally, or because the
  symbols involved were declared positive).

There is one derivative rule: one walk of an expression yields the terms of
every partial derivative (Leibniz and chain rules).  `gradient` normalizes
each partial and `diff_jet` reads one of them; `total_derivative` is the
chain rule over the same walk, ``D_i e = sum_w de/dw * w_{,i}``, and sums
the unnormalized terms before it normalizes once, as
``calc_var.vertical_delta`` does per generator tuple.  Coefficient sums go
through one accumulator, and renaming (`map_vars`) and substitution
(`substitute`) through one monomial rewriter.

Everything in this module is immutable and side-effect free; values can be
shared freely between threads.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import (
    DomainError,
    OrderLimitError,
    ParseError,
    ResourceLimitError,
    UnboundVariableError,
    UndeclaredSymbolError,
)

__all__ = [
    "SymbolMeta",
    "JetVar",
    "Expr",
    "normalize",
    "gradient",
    "diff_jet",
    "total_derivative",
    "evaluate",
    "sqrt",
    "apply_fn",
    "Context",
    "parse_expr",
    "eval_ast",
    "ast_to_expr",
    "DEFAULT_MAX_JET_ORDER",
]

DEFAULT_MAX_JET_ORDER = 3

# Guard rails for exact arithmetic (spec: resource-limit error, not a hang).
MAX_TERMS = 2_000_000
MAX_COEFF_BITS = 1_000_000


class SymbolMeta:
    """Non-identity attributes of a symbol: how it varies and what it depends on.

    ``background`` symbols are never hit by the vertical differential.
    ``excluded`` lists base-coordinate indices the symbol does not depend on
    (so its total derivative in those directions vanishes); ``constant`` kills
    all of them.  ``positive`` admits the symbol to sqrt-simplification.

    Metadata is deliberately excluded from equality and ordering of jet
    variables: it travels with construction but never affects normal forms.
    """

    __slots__ = ("background", "constant", "excluded", "positive")

    def __init__(self, background=False, constant=False, excluded=frozenset(), positive=False):
        self.background = bool(background)
        self.constant = bool(constant)
        self.excluded = frozenset(excluded)
        self.positive = bool(positive)

    def depends_on(self, coord: int) -> bool:
        return not self.constant and coord not in self.excluded

    def __repr__(self):
        return (f"SymbolMeta(background={self.background}, constant={self.constant}, "
                f"excluded={set(self.excluded) or '{}'}, positive={self.positive})")


_DYNAMIC = SymbolMeta()


class JetVar:
    """A field component together with a derivative multi-index.

    ``deriv`` is stored sorted, which encodes the commutativity of total
    derivatives.  Identity (equality, hashing, ordering) is the triple
    ``key = (field, comp, deriv)``, stored once; ``meta`` rides along without
    affecting it.
    """

    __slots__ = ("field", "comp", "deriv", "meta", "key", "_hash")

    def __init__(self, field: str, comp: tuple = (), deriv: tuple = (), meta: SymbolMeta = _DYNAMIC):
        self.field = field
        self.comp = tuple(comp)
        self.deriv = tuple(sorted(deriv))
        self.meta = meta
        self.key = (field, self.comp, self.deriv)
        self._hash = hash(self.key)

    def with_deriv(self, coord: int, max_order: int) -> "JetVar":
        if len(self.deriv) + 1 > max_order:
            raise OrderLimitError(
                f"jet order {len(self.deriv) + 1} of {self.field} exceeds the configured maximum {max_order}")
        return JetVar(self.field, self.comp, self.deriv + (coord,), self.meta)

    def order(self) -> int:
        return len(self.deriv)

    def __eq__(self, other):
        return self is other or isinstance(other, JetVar) and self.key == other.key

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.key < other.key

    def __repr__(self):
        return f"JetVar({self.field!r}, {self.comp!r}, {self.deriv!r})"


# A monomial is ``(vars, fns)`` with
#   vars: tuple of (JetVar, int exponent), sorted by JetVar.key
#   fns:  tuple of ((name, order, Expr argument), int exponent), sorted
_EMPTY_MONO = ((), ())


def _mono_key(mono):
    vars_, fns = mono
    return (_vars_key(vars_),
            tuple(((name, order, arg.sort_key()), e) for (name, order, arg), e in fns))


def _vars_key(vars_):
    return tuple([(v.key, e) for v, e in vars_])


class Expr:
    """A normalized exact-rational expression; immutable."""

    __slots__ = ("terms", "_hash", "_key", "_vars")

    def __init__(self, terms=()):
        # Internal: callers must pass already-normalized term tuples.
        self.terms = terms
        self._hash = None
        self._key = None
        self._vars = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def const(value) -> "Expr":
        q = Fraction(value)
        if q == 0:
            return ZERO
        if q.numerator.bit_length() > MAX_COEFF_BITS or q.denominator.bit_length() > MAX_COEFF_BITS:
            raise ResourceLimitError("rational coefficient exceeds the configured bit-length limit")
        return Expr(((_EMPTY_MONO, q),))

    @staticmethod
    def var(v: JetVar) -> "Expr":
        mono = (((v, 1),), ())
        return Expr(((mono, Fraction(1)),))

    @staticmethod
    def _from_map(acc: dict) -> "Expr":
        """The Expr of a ``{monomial: coefficient}`` map: zero sums dropped,
        monomials in ``_mono_key`` order.  When no monomial has a function
        factor, they are sorted by their variable key alone; the keys of
        distinct monomials differ, so that is the same order."""
        items = [(m, c) for m, c in acc.items() if c]
        if len(items) > MAX_TERMS:
            raise ResourceLimitError(f"expression exceeds {MAX_TERMS} monomials")
        for _, c in items:
            if c.numerator.bit_length() > MAX_COEFF_BITS or c.denominator.bit_length() > MAX_COEFF_BITS:
                raise ResourceLimitError("rational coefficient exceeds the configured bit-length limit")
        if any(m[1] for m, _ in items):
            items.sort(key=lambda t: _mono_key(t[0]))
        else:
            items.sort(key=lambda t: _vars_key(t[0][0]))
        return Expr(tuple(items))

    # -- basic protocol ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def sort_key(self):
        if self._key is None:
            self._key = tuple((_mono_key(m), (c.numerator, c.denominator)) for m, c in self.terms)
        return self._key

    # equality and hashing read the canonical terms directly: ``sort_key()``
    # would build and cache a second, nested copy of the whole expression
    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self is other or self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def __repr__(self):
        return f"Expr({to_text(self)})"

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, Expr):
            return x
        if isinstance(x, (int, Fraction)):
            return Expr.const(x)
        return NotImplemented

    def __add__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        _accumulate(acc, other.terms)
        return _resimplify(acc)

    __radd__ = __add__

    def __neg__(self):
        return Expr(tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return Expr._coerce(other) - self

    def __mul__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = {}
        _accumulate(acc, ((_mono_mul(m1, m2), c1 * c2) for m1, c1 in self.terms for m2, c2 in other.terms))
        return _resimplify(acc)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            return ONE
        if n < 0:
            return self._invert() ** (-n)
        result = ONE
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def _invert(self) -> "Expr":
        if not self.terms:
            raise ZeroDivisionError("division by zero expression")
        if len(self.terms) != 1:
            raise ZeroDivisionError("can only invert a single-monomial expression")
        (vars_, fns), c = self.terms[0]
        mono = (tuple((v, -e) for v, e in vars_), tuple((f, -e) for f, e in fns))
        return _resimplify({mono: 1 / c})

    def __truediv__(self, other):
        other = Expr._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other._invert()

    def __rtruediv__(self, other):
        return Expr._coerce(other) / self

    # -- structure queries ----------------------------------------------------

    def jet_vars(self) -> list:
        """All distinct jet variables in the expression, including those
        buried inside scalar-function arguments, in sorted order."""
        if self._vars is None:
            seen = {}
            stack = [self]
            while stack:
                e = stack.pop()
                for (vars_, fns), _ in e.terms:
                    for v, _e in vars_:
                        seen.setdefault(v.key, v)
                    for (name, order, arg), _e in fns:
                        stack.append(arg)
            self._vars = tuple(sorted(seen.values()))
        return list(self._vars)


ZERO = Expr()
ONE = Expr(((_EMPTY_MONO, Fraction(1)),))


def _mono_mul(m1, m2):
    v1, f1 = m1
    v2, f2 = m2
    if not v2 and not f2:
        return m1
    if not v1 and not f1:
        return m2
    vd = {}
    for v, e in v1 + v2:
        vd[v] = vd.get(v, 0) + e
    fd = {}
    for f, e in f1 + f2:
        fd[f] = fd.get(f, 0) + e
    vars_ = tuple(sorted(((v, e) for v, e in vd.items() if e != 0), key=lambda t: t[0].key))
    fns = tuple(sorted((((name, order, arg), e) for (name, order, arg), e in fd.items() if e != 0),
                       key=lambda t: (t[0][0], t[0][1], t[0][2].sort_key())))
    return (vars_, fns)


def _times_var(mono, w: JetVar):
    """``mono`` times the jet variable ``w``: ``_mono_mul`` with one factor."""
    vars_, fns = mono
    key = w.key
    for i, (v, e) in enumerate(vars_):
        if v.key < key:
            continue
        if v.key != key:
            return vars_[:i] + ((w, 1),) + vars_[i:], fns
        if e == -1:
            return vars_[:i] + vars_[i + 1:], fns
        return vars_[:i] + ((v, e + 1),) + vars_[i + 1:], fns
    return vars_ + ((w, 1),), fns


def _accumulate(acc: dict, terms) -> None:
    """Add ``(monomial, coefficient)`` pairs into the sums of ``acc``."""
    for m, c in terms:
        if m in acc:
            acc[m] += c
        else:
            acc[m] = c


def _certified_nonneg(e: Expr) -> bool:
    """True when every monomial is manifestly >= 0 wherever it is defined.

    A term qualifies if its coefficient is positive and every jet-variable
    factor either carries an even exponent or was declared positive; sqrt
    factors are nonnegative by definition.  Opaque functions never qualify.
    """
    if not e.terms:
        return False
    for (vars_, fns), c in e.terms:
        if c < 0:
            return False
        for v, ex in vars_:
            if ex % 2 != 0 and not v.meta.positive:
                return False
        for (name, order, arg), ex in fns:
            if name != "sqrt":
                return False  # opaque functions are not certified
    return True


def _resimplify(acc: dict) -> Expr:
    """Drop zeros, then rewrite reducible sqrt powers; returns a frozen Expr.

    Only monomials with a function factor go through the rewriting loop; a
    function-free monomial has no sqrt to fold and is kept as it is."""
    out = {}
    pending = []
    for m, c in acc.items():
        if c:
            if m[1]:
                pending.append((m, c))
            else:
                out[m] = c
    while pending:
        mono, coeff = pending.pop()
        vars_, fns = mono
        for i, ((name, order, arg), ex) in enumerate(fns):
            k, r = divmod(ex, 2)
            if name != "sqrt" or order != 0 or k == 0 or not _certified_nonneg(arg):
                continue
            if k < 0 and len(arg.terms) != 1:
                continue  # cannot fold a negative power of a sum back in
            rest = fns[:i] + ((((name, order, arg), r),) if r else ()) + fns[i + 1:]
            pending.extend((Expr((((vars_, rest), coeff),)) * arg ** k).terms)
            break
        else:
            _accumulate(out, ((mono, coeff),))
    return Expr._from_map(out)


# -- scalar functions ---------------------------------------------------------

def apply_fn(name: str, order: int, arg: Expr) -> Expr:
    """The expression ``f^(order)(arg)`` for an opaque scalar function f."""
    mono = ((), (((name, order, arg), 1),))
    return _resimplify({mono: Fraction(1)})


def sqrt(arg: Expr) -> Expr:
    """Square root as a first-class factor; collapses on perfect squares of
    certified-nonnegative arguments via the normal form."""
    return apply_fn("sqrt", 0, arg)


def _fn_factor_derivative(name: str, order: int, arg: Expr) -> Expr:
    """d f^(order)/d(arg) as an expression.

    sqrt rewrites in terms of itself; everything else is opaque and just bumps
    the derivative order.
    """
    if name == "sqrt":
        if order != 0:
            raise ValueError("sqrt factors never carry a derivative order")
        return Expr.const(Fraction(1, 2)) * apply_fn("sqrt", 0, arg) ** (-1)
    return apply_fn(name, order + 1, arg)


# -- the four spec operations -------------------------------------------------

def normalize(e: Expr) -> Expr:
    """Return the canonical form of ``e``.

    Expressions are normalized on construction, so this re-runs the
    simplification pass and is (verifiably) idempotent.
    """
    return _resimplify({m: c for m, c in e.terms})


def gradient(e: Expr) -> dict:
    """Every nonzero first partial derivative of ``e``, keyed by jet variable.

    One walk over the terms: each variable factor adds its partial to that
    variable's sum, and each function factor chains through the gradient of
    its argument (Leibniz and chain rules).  Variables whose partial
    vanishes are left out.
    """
    return _partials(e, None, 0)


def _partials(e: Expr, coord: int | None, max_order: int) -> dict:
    """The walk of :func:`_partial_terms`, each variable's terms summed and
    normalized once; variables whose partial vanishes are left out."""
    out = {}
    for w, terms in _partial_terms(e, coord, max_order).items():
        acc = {}
        _accumulate(acc, terms)
        d = _resimplify(acc)
        if d.terms:
            out[w] = d
    return out


def _partial_terms(e: Expr, coord: int | None, max_order: int) -> dict:
    """The walk of :func:`gradient`: each variable's partial as a list of
    ``(monomial, coefficient)`` pairs, not yet summed or normalized.  With a
    ``coord``, it takes only the variables that depend on ``coord``,
    function arguments included, and raises OrderLimitError for one already
    at ``max_order``.

    Every monomial is irreducible as it stands: it keeps the function
    factors of a term of ``e``, or is a term of a normalized product.  So
    one ``_resimplify`` of any sum of them is that sum's normal form.  A
    monomial repeats in a list only through a function factor: the variable
    factors of distinct monomials give distinct partials."""
    acc = {}
    for (vars_, fns), coeff in e.terms:
        for i, (w, ex) in enumerate(vars_):
            if coord is not None:
                if not w.meta.depends_on(coord):
                    continue
                if len(w.deriv) >= max_order:
                    w.with_deriv(coord, max_order)  # raises OrderLimitError
            if ex == 1:
                term = ((vars_[:i] + vars_[i + 1:], fns), coeff)
            else:
                term = ((vars_[:i] + ((w, ex - 1),) + vars_[i + 1:], fns), coeff * ex)
            terms = acc.get(w)
            if terms is None:
                acc[w] = [term]
            else:
                terms.append(term)
        for i, ((name, order, arg), ex) in enumerate(fns):
            dargs = _partials(arg, coord, max_order)
            if not dargs:
                continue
            rest = fns[:i] + (((name, order, arg), ex - 1),) + fns[i + 1:] if ex != 1 else fns[:i] + fns[i + 1:]
            outer = Expr((((vars_, rest), coeff * ex),)) * _fn_factor_derivative(name, order, arg)
            for w, darg in dargs.items():
                acc.setdefault(w, []).extend((outer * darg).terms)
    return acc


def diff_jet(e: Expr, v: JetVar) -> Expr:
    """Partial derivative with respect to a single jet variable.

    Linear, Leibniz, and chain rules; jet variables are independent
    coordinates, so a variable absent from ``e`` differentiates to zero.
    """
    return gradient(e).get(v, ZERO)


def total_derivative(e: Expr, coord: int, max_order: int = DEFAULT_MAX_JET_ORDER) -> Expr:
    """Total derivative along base coordinate ``coord``.

    The chain rule over the first partials: ``sum_w de/dw * w_{,coord}``.
    The unsummed partial terms of :func:`_partial_terms` are each
    multiplied by their bumped variable, and the sum is normalized once.
    The walk takes only the variables that depend on ``coord``; symbols whose
    metadata excludes ``coord`` contribute nothing.  Raises OrderLimitError
    when a variable of ``e`` that depends on ``coord`` (function arguments
    included) is already at ``max_order``, even where its partial cancels.
    """
    acc = {}
    for w, terms in _partial_terms(e, coord, max_order).items():
        bumped = w.with_deriv(coord, max_order)
        _accumulate(acc, ((_times_var(m, bumped), c) for m, c in terms))
    return _resimplify(acc)


def _eval_sqrt(x):
    if x < 0:
        raise DomainError(f"sqrt of negative value {x}")
    if isinstance(x, Fraction):
        rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
        if rn * rn == x.numerator and rd * rd == x.denominator:
            return Fraction(rn, rd)
    return math.sqrt(x)


def evaluate(e: Expr, point: Mapping[JetVar, object], fns: Mapping | None = None):
    """Evaluate at a point binding every jet variable to a number, in one
    walk over the terms.

    A bound value is a rational (``int`` or ``Fraction``) or a float.  On
    rationals the walk is exact, and the result is a ``Fraction`` unless a
    scalar function returns a float (sqrt of a non-square, or a callable from
    ``fns``).  Arrays over grid sites are evaluated by
    ``lattice.LatticeModel.evaluate``.  ``fns`` maps ``(name, order)`` to a
    callable for opaque functions; ``("sqrt", 0)`` in ``fns`` replaces the
    built-in sqrt, which is exact on rational squares and raises DomainError
    on negative arguments.
    """
    fns = fns or {}
    total = Fraction(0)
    for (vars_, fxs), coeff in e.terms:
        val = coeff
        for v, ex in vars_:
            try:
                x = point[v]
            except KeyError:
                raise UnboundVariableError(f"no binding for jet variable {v.field}{v.comp}{v.deriv}") from None
            val = val * _ipow(x, ex)
        for (name, order, arg), ex in fxs:
            fn = fns.get((name, order), _eval_sqrt if name == "sqrt" else None)
            if fn is None:
                raise UnboundVariableError(f"no callable bound for {name!r} (derivative order {order})")
            val = val * _ipow(fn(evaluate(arg, point, fns)), ex)
        total = total + val
    return total


def esum(exprs: Iterable[Expr]) -> Expr:
    """Sum many expressions in one accumulation pass (avoids quadratic rebuilds)."""
    acc: dict = {}
    for e in exprs:
        _accumulate(acc, e.terms)
    return _resimplify(acc)


def _rewrite(e: Expr, image: Callable[[JetVar, int], JetVar | Expr]) -> Expr:
    """Rebuild ``e`` monomial by monomial, recursing into function arguments.

    ``image(v, ex)`` of a variable factor ``v^ex`` is either a jet variable,
    kept in the monomial with exponent ``ex`` (exponents of variables with
    one image add up), or an expression, multiplied in as the factor's
    value.  Function factors are multiplied in with rewritten arguments.  A
    monomial with neither is renamed and summed as it is.
    """
    acc = {}
    for (vars_, fns), coeff in e.terms:
        kept, factors = {}, []
        for v, ex in vars_:
            w = image(v, ex)
            if isinstance(w, JetVar):
                kept[w] = kept.get(w, 0) + ex
            else:
                factors.append(w)
        mono = (tuple(sorted(((w, ex) for w, ex in kept.items() if ex), key=lambda t: t[0].key)), ())
        if not factors and not fns:
            if mono in acc:
                acc[mono] += coeff
            else:
                acc[mono] = coeff
            continue
        term = Expr(((mono, coeff),))
        for factor in factors:
            term = term * factor
        for (name, order, arg), ex in fns:
            term = term * apply_fn(name, order, _rewrite(arg, image)) ** ex
        _accumulate(acc, term.terms)
    return _resimplify(acc)


def map_vars(e: Expr, f: Callable[[JetVar], JetVar]) -> Expr:
    """Rebuild ``e`` with every jet variable replaced by ``f(var)``.

    Used for boundary restriction (renaming transversal jets); recurses into
    scalar-function arguments.
    """
    return _rewrite(e, lambda v, ex: f(v))


def substitute(e: Expr, images: Mapping[tuple, Expr], max_order: int = DEFAULT_MAX_JET_ORDER) -> Expr:
    """Substitute expressions for base symbols, chaining through derivatives.

    ``images`` maps ``(field, comp)`` of an underived symbol to its defining
    expression; a jet variable carrying derivative indices is replaced by the
    corresponding total derivatives of the image.  Exponents of substituted
    variables must be nonnegative.  Variables without an image are kept, so
    with no images ``e`` is returned as it is.
    """
    if not images:
        return e

    def image(v: JetVar, ex: int):
        img = images.get((v.field, v.comp))
        if img is None:
            return v
        if ex < 0:
            raise ValueError(f"cannot substitute into negative power of {v.field}{v.comp}")
        for i in v.deriv:
            img = total_derivative(img, i, max_order)
        return img ** ex

    return _rewrite(e, image)


def _ipow(x, e: int):
    # an integer stays exact under a negative power
    return (Fraction(x) if isinstance(x, int) and e < 0 else x) ** e


# =============================================================================
# Expression text grammar
# =============================================================================
#
#   expr   := term (('+'|'-') term)*
#   term   := signed (('*'|'/') signed)*
#   signed := '-'* power
#   power  := atom ('^' ('-'? INT))?
#   atom   := RATIONAL | NAME trailer | NAME '(' expr ')' | '(' expr ')'
#           | 'd' '[' IDX ']' atom
#   trailer: optional '[' IDX (',' IDX)* ']' then zero or more "'"
#
# Primes denote transversal derivatives, d[i] tangential/spatial ones; IDX is
# a coordinate name or a bare integer.

_TOKEN_RE = re.compile(r"""
    (?P<num>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[()\[\],+\-*/^'])
  | (?P<ws>\s+)
""", re.VERBOSE)


def _tokenize(text: str):
    pos = 0
    out = []
    line, col = 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        val = m.group()
        if kind != "ws":
            out.append((kind, val, line, col))
        for ch in val:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    out.append(("eof", "", line, col))
    return out


class Context:
    """Declarations needed to resolve an expression string.

    Maps names to fields (with component index ranges and metadata), to scalar
    functions, and coordinate names to indices; knows which coordinate is
    transversal so primes can be resolved.
    """

    def __init__(self, coords: Iterable[str] = ("t",), transversal: int = 0):
        self.coords = list(coords)
        self.transversal = transversal
        self.fields: dict[str, tuple[tuple[int, ...], SymbolMeta]] = {}
        self.functions: set[str] = set()

    def declare_field(self, name: str, index_ranges: tuple[int, ...] = (), meta: SymbolMeta = _DYNAMIC):
        if name in self.fields or name in self.functions:
            raise ParseError(f"duplicate declaration of {name!r}")
        self.fields[name] = (tuple(index_ranges), meta)
        return self

    def declare_function(self, name: str):
        if name in self.fields or name in self.functions:
            raise ParseError(f"duplicate declaration of {name!r}")
        self.functions.add(name)
        return self

    def coord_index(self, token: str, line=None, col=None) -> int:
        if token in self.coords:
            return self.coords.index(token)
        if token.isdigit():
            i = int(token)
            if i < len(self.coords):
                return i
        raise ParseError(f"unknown coordinate {token!r}", line, col)

    def jetvar(self, name: str, comps: tuple, nprimes: int, tangential: tuple) -> JetVar:
        ranges, meta = self.fields[name]
        if len(comps) != len(ranges):
            raise ParseError(f"{name!r} takes {len(ranges)} component indices, got {len(comps)}")
        for c, r in zip(comps, ranges):
            if not (0 <= c < r):
                raise ParseError(f"component index {c} out of range for {name!r}")
        deriv = tuple(tangential) + (self.transversal,) * nprimes
        return JetVar(name, comps, deriv, meta)


def parse_expr(text: str, ctx: Context):
    """Parse to a raw AST (the unnormalized tree; see eval_ast / ast_to_expr)."""
    toks = _tokenize(text)
    pos = [0]

    def peek():
        return toks[pos[0]]

    def take(expect=None):
        kind, val, line, col = toks[pos[0]]
        if expect is not None and val != expect:
            raise ParseError(f"expected {expect!r}, found {val or 'end of input'!r}", line, col)
        pos[0] += 1
        return kind, val, line, col

    def parse_sum():
        node = parse_term()
        while peek()[1] in ("+", "-"):
            _, op, _, _ = take()
            rhs = parse_term()
            node = ("add", node, rhs) if op == "+" else ("sub", node, rhs)
        return node

    def parse_term():
        node = parse_signed()
        while peek()[1] in ("*", "/"):
            _, op, _, _ = take()
            rhs = parse_signed()
            node = ("mul", node, rhs) if op == "*" else ("div", node, rhs)
        return node

    def parse_signed():
        neg = False
        while peek()[1] in ("+", "-"):
            _, op, _, _ = take()
            if op == "-":
                neg = not neg
        node = parse_power()
        return ("neg", node) if neg else node

    def parse_power():
        node = parse_atom()
        if peek()[1] == "^":
            take()
            sign = 1
            if peek()[1] == "-":
                take()
                sign = -1
            kind, val, line, col = take()
            if kind != "num":
                raise ParseError("exponent must be an integer", line, col)
            node = ("pow", node, sign * int(val))
        return node

    def parse_index(line, col):
        kind, val, l, c = take()
        if kind not in ("num", "name"):
            raise ParseError("expected an index", l, c)
        return val, l, c

    def parse_atom():
        kind, val, line, col = peek()
        if kind == "num":
            take()
            return ("num", Fraction(int(val)))
        if val == "(":
            take()
            node = parse_sum()
            take(")")
            return node
        if kind == "name":
            if val == "d" and toks[pos[0] + 1][1] == "[":
                take()  # d
                take("[")
                tok, l, c = parse_index(line, col)
                take("]")
                idx = ctx.coord_index(tok, l, c)
                inner = parse_atom()
                if inner[0] != "var":
                    raise ParseError("d[...] must apply to a jet variable", line, col)
                _, name, comps, nprimes, tang = inner
                return ("var", name, comps, nprimes, tang + (idx,))
            take()
            if val in ctx.functions:
                order = 0
                while peek()[1] == "'":
                    take()
                    order += 1
                take("(")
                arg = parse_sum()
                take(")")
                return ("call", val, order, arg)
            if val not in ctx.fields:
                raise UndeclaredSymbolError(f"undeclared symbol {val!r}", line, col)
            comps = ()
            if peek()[1] == "[":
                take("[")
                idxs = []
                while True:
                    kindi, vi, li, ci = take()
                    if kindi != "num":
                        raise ParseError("component indices must be integers", li, ci)
                    idxs.append(int(vi))
                    if peek()[1] == ",":
                        take()
                        continue
                    break
                take("]")
                comps = tuple(idxs)
            nprimes = 0
            while peek()[1] == "'":
                take()
                nprimes += 1
            return ("var", val, comps, nprimes, ())
        raise ParseError(f"unexpected token {val or 'end of input'!r}", line, col)

    node = parse_sum()
    kind, val, line, col = peek()
    if kind != "eof":
        raise ParseError(f"trailing input {val!r}", line, col)
    return node


def eval_ast(node, ctx: Context, point, fns=None):
    """Direct recursive evaluation of the raw parse tree.

    Serves as the independent oracle for ``evaluate(normalize(...))``: no
    normalization, no simplification, just the tree.
    """
    fns = fns or {}
    op = node[0]
    if op == "num":
        return node[1]
    if op == "neg":
        return -eval_ast(node[1], ctx, point, fns)
    if op in ("add", "sub", "mul", "div"):
        a = eval_ast(node[1], ctx, point, fns)
        b = eval_ast(node[2], ctx, point, fns)
        if op == "add":
            return a + b
        if op == "sub":
            return a - b
        if op == "mul":
            return a * b
        return a / b
    if op == "pow":
        return _ipow(eval_ast(node[1], ctx, point, fns), node[2])
    if op == "call":
        a = eval_ast(node[3], ctx, point, fns)
        if node[1] == "sqrt":
            if node[2]:
                raise ValueError("sqrt carries no derivative order")
            return _eval_sqrt(a)
        return fns[(node[1], node[2])](a)
    if op == "var":
        _, name, comps, nprimes, tang = node
        v = ctx.jetvar(name, comps, nprimes, tang)
        try:
            return point[v]
        except KeyError:
            raise UnboundVariableError(f"no binding for {name}{comps}") from None
    raise ValueError(f"unknown AST node {op!r}")


def ast_to_expr(node, ctx: Context) -> Expr:
    op = node[0]
    if op == "num":
        return Expr.const(node[1])
    if op == "neg":
        return -ast_to_expr(node[1], ctx)
    if op in ("add", "sub"):
        # the parser builds sums left-deep: walk the chain in a loop and sum
        # the terms once (linear in their number, no recursion per term)
        terms = []
        while node[0] in ("add", "sub"):
            rhs = ast_to_expr(node[2], ctx)
            terms.append(rhs if node[0] == "add" else -rhs)
            node = node[1]
        terms.append(ast_to_expr(node, ctx))
        return esum(terms)
    if op in ("mul", "div"):
        # products are left-deep too: unwind the chain, then fold it left to right
        chain = []
        while node[0] in ("mul", "div"):
            chain.append(node)
            node = node[1]
        acc = ast_to_expr(node, ctx)
        for link in reversed(chain):
            rhs = ast_to_expr(link[2], ctx)
            acc = acc * rhs if link[0] == "mul" else acc / rhs
        return acc
    if op == "pow":
        return ast_to_expr(node[1], ctx) ** node[2]
    if op == "call":
        return apply_fn(node[1], node[2], ast_to_expr(node[3], ctx))
    if op == "var":
        _, name, comps, nprimes, tang = node
        return Expr.var(ctx.jetvar(name, comps, nprimes, tang))
    raise ValueError(f"unknown AST node {op!r}")


def parse(text: str, ctx: Context) -> Expr:
    return ast_to_expr(parse_expr(text, ctx), ctx)


# -- rendering ----------------------------------------------------------------

def _var_text(v: JetVar, ctx: Context | None) -> str:
    base = v.field
    if v.comp:
        base += "[" + ",".join(str(c) for c in v.comp) + "]"
    primes = 0
    tangential = []
    for i in v.deriv:
        if ctx is not None and i == ctx.transversal:
            primes += 1
        else:
            tangential.append(i)
    prefix = "".join(f"d[{i}]" for i in tangential)
    return prefix + base + "'" * primes


def to_text(e: Expr, ctx: Context | None = None) -> str:
    """Canonical text; re-parses to the same expression under the same context.

    The text of each variable power is built once per call and looked up
    after that (``BoundarySplit.renderings`` shares one such memo across
    the expressions it renders)."""
    return _text(e, ctx, {})


def _text(e: Expr, ctx: Context | None, names: dict) -> str:
    # ``names`` holds the text of each variable power met so far in this rendering
    if not e.terms:
        return "0"
    parts = []
    for (vars_, fns), coeff in e.terms:
        factors = []
        for power in vars_:
            t = names.get(power)
            if t is None:
                v, ex = power
                t = _var_text(v, ctx)
                t = names[power] = t if ex == 1 else f"{t}^{ex}"
            factors.append(t)
        for (name, order, arg), ex in fns:
            t = name + "'" * order + "(" + _text(arg, ctx, names) + ")"
            factors.append(t if ex == 1 else f"{t}^{ex}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        parts.append(("-" if coeff < 0 else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


_LATEX_GREEK = {"phi": r"\phi", "omega": r"\omega", "lam": r"\lambda", "Lam": r"\Lambda",
                "eps": r"\varepsilon", "rho": r"\rho", "xi": r"\xi", "eta": r"\eta",
                "sigma": r"\sigma", "mu": r"\mu", "alpha": r"\alpha", "delta": r"\delta"}


def _latex_name(name: str) -> str:
    # Greek names become their letter and other multi-letter names are set
    # upright; braced, so a prefix such as \dot takes the whole name
    if name in _LATEX_GREEK:
        return "{%s}" % _LATEX_GREEK[name]
    return r"{\mathrm{%s}}" % name if len(name) > 1 else name


def var_latex(v: JetVar, ctx: Context | None = None) -> str:
    base = _latex_name(v.field)
    primes = 0
    tangential = []
    for i in v.deriv:
        if ctx is not None and i == ctx.transversal:
            primes += 1
        else:
            tangential.append(i)
    if primes == 1:
        base = r"\dot " + base
    elif primes == 2:
        base = r"\ddot " + base
    elif primes > 2:
        base = base + "^{(%d)}" % primes
    if v.comp:
        base += "_{" + ",".join(str(c) for c in v.comp) + "}"
    for i in tangential:
        base = r"\partial_{%d}" % i + base
    return base


def to_latex(e: Expr, ctx: Context | None = None) -> str:
    if not e.terms:
        return "0"
    parts = []
    for (vars_, fns), coeff in e.terms:
        factors = []
        for v, ex in vars_:
            t = var_latex(v, ctx)
            factors.append(t if ex == 1 else t + "^{%d}" % ex)
        for (name, order, arg), ex in fns:
            if name == "sqrt":
                t = r"\sqrt{%s}" % to_latex(arg, ctx)
                if ex != 1:
                    t = "(" + t + ")^{%d}" % ex
            else:
                t = _latex_name(name) + "'" * order + "(" + to_latex(arg, ctx) + ")"
                if ex != 1:
                    t = t + "^{%d}" % ex
            factors.append(t)
        mag = abs(coeff)
        if not factors:
            body = _frac_latex(mag)
        elif mag == 1:
            body = r"\,".join(factors)
        else:
            body = _frac_latex(mag) + r"\,".join(factors)
        parts.append(("-" if coeff < 0 else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += sign + body
    return out


def _frac_latex(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return r"\frac{%d}{%d}" % (q.numerator, q.denominator)
