"""em's boundary data written out by hand in the electric field ``F0``.

An oracle independent of the derivation: the boundary 1-form
``h^{ij} F0[i] rh delta(A[j])``, the Gauss density ``D_i(h^{ij} F0[j] rh)``
and the hamiltonian ``rh (h^{ij} F0[i] F0[j] / 2 + h^{ij} h^{kl} F[k,i] F[l,j] / 4)``
with ``F[k,i] = d[i]A[k] - d[k]A[i]``, over the slice of the split metric.
"""

from fractions import Fraction

from ktphase import expr as E
from ktphase.calc_var import LocalVarForm
from ktphase.expr import Expr, JetVar, SymbolMeta


def em_by_hand(t):
    """``(alpha, gauss, hamiltonian)`` of the em theory spec ``t``."""
    tang = t.tangential()
    restr = frozenset({0})
    meta = SymbolMeta(excluded=restr)
    A = lambda k, i: Expr.var(JetVar("A", (k,), (i,), meta))
    F0 = lambda j: Expr.var(JetVar("F0", (j,), (), meta))
    rh = Expr.var(JetVar("rh", (), (), SymbolMeta(background=True, excluded=restr, positive=True)))
    hv = lambda i, j: Expr.var(JetVar("hinv", (min(i, j), max(i, j)), (),
                                      SymbolMeta(background=True, excluded=restr)))
    alpha = LocalVarForm(1, (((JetVar("A", (j,), (), meta),), E.esum(hv(i, j) * F0(i) for i in tang) * rh)
                             for j in tang))
    gauss = E.esum(E.total_derivative(hv(i, j) * F0(j) * rh, i, t.jet_order + 1)
                   for i in tang for j in tang)
    H = Expr.const(Fraction(1, 2)) * rh * E.esum(hv(i, j) * F0(i) * F0(j) for i in tang for j in tang) \
        + Expr.const(Fraction(1, 4)) * rh * E.esum(
            hv(i, j) * hv(k, l) * (A(k, i) - A(i, k)) * (A(l, j) - A(j, l))
            for i in tang for j in tang for k in tang for l in tang)
    return alpha, gauss, H
