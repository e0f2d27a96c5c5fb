"""Lattice backend: assembly, gradients, vector fields, evolution."""

import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ktphase import expr as E
from ktphase import lattice
from ktphase import theories as TH
from ktphase import verify as VF
from ktphase.errors import CFLError, CheckFailure
from ktphase.lattice import (
    LatticeGrid,
    LatticeModel,
    assemble_two_form,
    coisotropy_check,
    divergence_free_em_data,
    evolve_em,
    hamiltonian_vector_field,
    poisson_bracket,
    random_smear,
    surface_tangent_basis,
    symplectic_current_check,
    two_form_rank,
    TwoFormMatrix,
)


@pytest.fixture
def rng():
    return np.random.default_rng(31)


def mech_model(m=2.0):
    return LatticeModel(TH.chart("mechanics"), LatticeGrid(shape=()),
                        bindings={"m": m},
                        functions={("V", 0): lambda q: 0.25 * q ** 4,
                                   ("V", 1): lambda q: q ** 3})


def scalar_model(shape=(8,)):
    t = TH.builtin("scalar")
    grid = LatticeGrid(shape=shape)
    return LatticeModel(TH.chart("scalar"), grid, bindings=TH.flat_metric_bindings(t)), grid


def em_model(shape=(8, 8, 8)):
    t = TH.builtin("em")
    grid = LatticeGrid(shape=shape)
    return LatticeModel(TH.chart("em"), grid, bindings=TH.flat_metric_bindings(t)), grid


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

def test_grid_validation():
    LatticeGrid(shape=(4, 4))
    LatticeGrid(shape=(1, 1, 1))
    LatticeGrid(shape=())
    with pytest.raises(ValueError):
        LatticeGrid(shape=(3,))
    with pytest.raises(ValueError):
        LatticeGrid(shape=(8,), spacing=0.0)
    with pytest.raises(ValueError):
        LatticeGrid(shape=(4, 4, 4, 4))


def test_centered_difference_skew(rng):
    grid = LatticeGrid(shape=(12,), spacing=0.5)
    a = rng.standard_normal(12)
    b = rng.standard_normal(12)
    # <Da, b> = -<a, Db> exactly up to roundoff pairing order
    lhs = float(np.dot(grid.diff(a, 0), b))
    rhs = -float(np.dot(a, grid.diff(b, 0)))
    assert abs(lhs - rhs) < 1e-14


def _diff_reference(grid, arr, axis):
    """The rolled centered difference, the oracle of ``LatticeGrid.diff``;
    ``axis`` is a grid axis, counted as in ``diff``."""
    if grid.shape[axis] == 1:
        return np.zeros_like(arr)
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * grid.spacing)


@st.composite
def _diff_cases(draw):
    """A grid, an array over it with component axes before or after the grid
    axes (or none), and a grid axis counted as its callers count it: from the
    front when the grid axes lead, from the end when components lead.  The
    array is contiguous or a transposed, reversed or strided view; the
    minimum 4-site axis is drawn as often as the longer ones."""
    shape = tuple(draw(st.lists(st.sampled_from([1, 4, 5, 7]), min_size=1, max_size=3)))
    grid = LatticeGrid(shape=shape, spacing=draw(st.sampled_from([1.0, 0.5, 0.3, 0.7])))
    comps = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    axis = draw(st.integers(0, len(shape) - 1))
    if draw(st.booleans()):
        arr_shape, axis = comps + shape, axis - len(shape)
    else:
        arr_shape = shape + comps
    return grid, draw(_arrays(arr_shape)), axis


@st.composite
def _arrays(draw, arr_shape):
    """An int or float array of ``arr_shape``, contiguous or a transposed,
    reversed or strided view."""
    layout = draw(st.sampled_from(["contiguous", "transposed", "reversed", "strided"]))
    base_shape = {"transposed": arr_shape[::-1],
                  "strided": arr_shape[:-1] + (2 * arr_shape[-1],)}.get(layout, arr_shape)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        arr = rng.integers(-1000, 1000, size=base_shape)
    else:
        arr = rng.standard_normal(base_shape)
    if layout == "transposed":
        arr = arr.T
    elif layout == "reversed":
        arr = arr[(slice(None, None, -1),) * arr.ndim]
    elif layout == "strided":
        arr = arr[..., ::2]
    assert arr.shape == arr_shape
    return arr


@settings(max_examples=300, deadline=None)
@given(_diff_cases())
def test_diff_equals_the_rolled_stencil(case):
    grid, arr, axis = case
    before = arr.copy()
    got = grid.diff(arr, axis)
    want = _diff_reference(grid, arr, axis)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(arr, before)


@st.composite
def _smooth_cases(draw):
    """A grid and an array over it with component axes after the grid axes
    (or none), laid out as in :func:`_arrays`."""
    shape = tuple(draw(st.lists(st.sampled_from([1, 4, 5, 7]), min_size=1, max_size=3)))
    comps = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    return LatticeGrid(shape=shape), draw(_arrays(shape + comps))


@settings(max_examples=300, deadline=None)
@given(_smooth_cases())
def test_smooth_equals_the_rolled_average(case):
    grid, arr = case
    before = arr.copy()
    want = arr
    for axis, n in enumerate(grid.shape):
        if n > 1:
            want = (want + np.roll(want, 1, axis) + np.roll(want, -1, axis)) / 3.0
    got = grid.smooth(arr)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(arr, before)


# ---------------------------------------------------------------------------
# two-form assembly
# ---------------------------------------------------------------------------

def test_mechanics_block(rng):
    model = mech_model(m=2.0)
    omega = assemble_two_form(model, model.random_state(rng))
    # in (v, q) slot order this is the standard [[0, m], [-m, 0]] block;
    # stored here over (q, v)
    assert np.array_equal(omega.blocks[0], np.array([[0.0, -2.0], [2.0, 0.0]]))
    assert two_form_rank(omega) == 2


def test_assembled_matrix_antisymmetric(rng):
    for model, grid in (scalar_model(), em_model((4, 4, 4))):
        state = model.random_state(rng)
        omega = assemble_two_form(model, state)
        full = omega.full()
        assert np.array_equal(full, -full.T)


def test_rank_invariant_under_unit_rescaling(rng):
    model = LatticeModel(TH.chart("pc4"), LatticeGrid(shape=(1, 1, 1)), bindings={"Lam": 0.0})
    state = model.random_state(rng)
    omega = assemble_two_form(model, state)
    r0 = two_form_rank(omega)
    scaled = {"e": 1e3 * state["e"], "omega": 1e-2 * state["omega"]}
    r1 = two_form_rank(assemble_two_form(model, scaled))
    assert r0 == r1 == 24


def test_rank_cuts_each_block_as_pinv_does(rng):
    # a site block 1e-9 times the others keeps its full rank: the rank cuts
    # each block against its own largest singular value, as the
    # pseudo-inverse does, so the field solves on the small block too
    model, _ = em_model((4, 1, 1))
    blocks = assemble_two_form(model, model.zero_state()).blocks
    omega = TwoFormMatrix(model=model, blocks=blocks * np.array([1.0, 1e-9, 1.0, 1.0])[:, None, None])
    assert two_form_rank(omega) == 24
    df = omega.apply(rng.standard_normal((4, model.nslots)))
    X, res = hamiltonian_vector_field(omega, df)
    assert np.abs(X[1]).max() > 0.1 and res <= 1e-12 * np.abs(df[1]).max()


def test_shape_mismatch_rejected(rng):
    model, grid = scalar_model()
    state = model.random_state(rng)
    state["phi"] = state["phi"][:4]
    with pytest.raises(ValueError):
        assemble_two_form(model, state)


# ---------------------------------------------------------------------------
# functional gradients
# ---------------------------------------------------------------------------

def test_gradient_matches_finite_differences(rng):
    # derived oracle: centered finite differences of the discretized sum
    model, grid = scalar_model((8,))
    t = TH.builtin("scalar")
    H = TH.chart("scalar").hamiltonian
    state = model.random_state(rng)

    def value(s):
        return float(model.evaluate(H, s).sum() * grid.cell_volume())

    grad = model.density_gradient(H, state)
    step = 1e-5
    for _ in range(12):
        f = ["phi", "phi0"][rng.integers(2)]
        site = rng.integers(8)
        sp = {k: v.copy() for k, v in state.items()}
        sm = {k: v.copy() for k, v in state.items()}
        sp[f][site, 0] += step
        sm[f][site, 0] -= step
        fd = (value(sp) - value(sm)) / (2 * step)
        slot = model.slot_index[(f, ())]
        assert abs(grad[site, slot] - fd) < 1e-8


def test_gradient_of_constant_functional(rng):
    model, grid = scalar_model((8,))
    state = model.random_state(rng)
    grad = model.density_gradient(E.Expr.const(7), state)
    assert np.all(grad == 0.0)


def test_em_smearing_gradient_formula(rng):
    # gradient of the gauge generator w.r.t. the electric covector is the
    # discrete gradient of the smearing (flat metric)
    model, grid = em_model((4, 4, 4))
    J = TH.constraint_set("em")["J"]
    state = model.random_state(rng)
    smear = random_smear(model, J, rng)
    grad = model.density_gradient(J, state, smear)
    lam = smear[("lam", ())]
    for j in range(3):
        slot = model.slot_index[("F0", (j + 1,))]
        want = grid.diff(lam, j).reshape(-1) * grid.cell_volume()
        assert np.allclose(grad[:, slot], want, atol=1e-14)
        aslot = model.slot_index[("A", (j + 1,))]
        assert np.all(grad[:, aslot] == 0.0)


# ---------------------------------------------------------------------------
# hamiltonian vector fields and brackets
# ---------------------------------------------------------------------------

def test_hamiltonian_vector_field_residual_reports_failure(rng):
    # a gradient with a component along the kernel directions cannot be
    # matched; the residual quantifies it
    model = LatticeModel(TH.chart("pc4"), LatticeGrid(shape=(1, 1, 1)), bindings={"Lam": 0.0})
    state = model.random_state(rng)
    omega = assemble_two_form(model, state)
    _, _, Vt = np.linalg.svd(omega.blocks[0])
    kernel_vec = Vt[-1]
    X, res = hamiltonian_vector_field(omega, kernel_vec.reshape(1, -1))
    assert res > 0.9  # the kernel component is entirely unreachable


def test_pinv_and_rank_share_the_cutoff():
    # singular values 1 and 1e-10 in pairs: the rank counts the 1e-10 pair as
    # kernel, so a gradient along it has no hamiltonian vector field either
    model, _ = em_model((1, 1, 1))
    block = np.zeros((6, 6))
    block[0, 1], block[2, 3] = 1.0, 1e-10
    omega = TwoFormMatrix(model=model, blocks=(block - block.T)[None])
    assert two_form_rank(omega) == 2
    df = np.zeros((1, 6))
    df[0, 2] = 1.0
    X, res = hamiltonian_vector_field(omega, df)
    assert np.abs(X).max() <= 1e-12 and abs(res - 1.0) <= 1e-12
    with pytest.raises(CheckFailure):
        poisson_bracket(df, df, omega)


def test_poisson_bracket_antisymmetry_and_self(rng):
    model = mech_model()
    state = model.random_state(rng)
    omega = assemble_two_form(model, state)
    H = TH.chart("mechanics").hamiltonian
    gH = model.density_gradient(H, state)
    q_func = E.Expr.var(E.JetVar("q"))
    gq = model.density_gradient(q_func, state)
    assert poisson_bracket(gH, gH, omega) == 0.0
    assert abs(poisson_bracket(gH, gq, omega) + poisson_bracket(gq, gH, omega)) < 1e-14


def test_poisson_bracket_rejects_ill_defined(rng):
    model = LatticeModel(TH.chart("pc4"), LatticeGrid(shape=(1, 1, 1)), bindings={"Lam": 0.0})
    state = model.random_state(rng)
    omega = assemble_two_form(model, state)
    _, _, Vt = np.linalg.svd(omega.blocks[0])
    bad = Vt[-1].reshape(1, -1)
    with pytest.raises(CheckFailure):
        poisson_bracket(bad, bad, omega)


def test_residual_is_the_two_norm_of_the_defect(rng):
    # the residual is summed in numpy, not by np.linalg.norm; on an em-sized
    # input the two agree to roundoff
    model, grid = em_model((16, 16, 16))
    W = rng.standard_normal((grid.nsites, 6, 6))
    W[:, :, -1] = W[:, -1, :] = 0.0  # a dead slot at every site: nonzero residual
    omega = TwoFormMatrix(model=model, blocks=W - np.swapaxes(W, 1, 2))
    df = rng.standard_normal((grid.nsites, 6))
    X, res = hamiltonian_vector_field(omega, df)
    want = np.linalg.norm(omega.apply(X) - df)
    assert want > 1.0 and abs(res - want) <= 1e-14 * want


def _recorded_pinv_shapes(monkeypatch):
    shapes = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda a, *r, **k: shapes.append(np.shape(a)) or pinv(a, *r, **k))
    return shapes


def test_flat_em_pinv_inverts_one_block(rng, monkeypatch):
    # every block of em's flat 2-form is the same: one block is inverted and
    # broadcast, and it equals the per-site pseudo-inverse bit for bit
    model, grid = em_model((6, 5, 4))
    omega = assemble_two_form(model, model.zero_state())
    want = np.linalg.pinv(omega.blocks, rcond=lattice.DEFAULT_RANK_TOL)
    shapes = _recorded_pinv_shapes(monkeypatch)
    got = omega.pinv
    assert shapes == [(1, 6, 6)]
    assert got.shape == want.shape and np.array_equal(got, want) and not got.flags.writeable
    J = TH.constraint_set("em")["J"]
    df = model.density_gradient(J, model.random_state(rng), random_smear(model, J, rng))
    X, res = hamiltonian_vector_field(omega, df)
    dfv = df.reshape(grid.nsites, model.nslots)
    want_X = np.einsum("sij,sj->si", want, dfv)
    assert np.array_equal(X, want_X)
    assert res == lattice._norm(omega.apply(want_X) - dfv)


def test_curved_em_pinv_inverts_every_site(monkeypatch):
    # a curved metric varies the blocks over the sites: each one is inverted
    model, grid = curved_em_model()
    omega = assemble_two_form(model, model.zero_state())
    shapes = _recorded_pinv_shapes(monkeypatch)
    assert omega.pinv.shape == omega.blocks.shape
    assert shapes == [(grid.nsites, 6, 6)]
    assert not np.all(omega.blocks == omega.blocks[:1])


def test_two_form_pinv_is_factored_once(rng, monkeypatch):
    model, grid = em_model((4, 4, 4))
    omega = assemble_two_form(model, model.zero_state())
    J = TH.constraint_set("em")["J"]
    state = model.random_state(rng)
    g1, g2 = (model.density_gradient(J, state, random_smear(model, J, rng)) for _ in range(2))
    shapes = _recorded_pinv_shapes(monkeypatch)
    hamiltonian_vector_field(omega, g1)
    hamiltonian_vector_field(omega, g2)
    poisson_bracket(g1, g2, omega)
    assert len(shapes) == 1
    with pytest.raises(ValueError):
        omega.blocks[0, 0, 1] = 1.0


# ---------------------------------------------------------------------------
# electromagnetic evolution
# ---------------------------------------------------------------------------

def test_evolve_em_zero_data():
    grid = LatticeGrid(shape=(4, 4, 4))
    state = {"A": np.zeros((4, 4, 4, 3)), "F0": np.zeros((4, 4, 4, 3))}
    final, gauss = evolve_em(state, grid, dt=0.1, steps=20)
    assert np.all(final["A"] == 0.0) and np.all(final["F0"] == 0.0)
    assert gauss.shape == (21,) and np.all(gauss == 0.0)


def test_evolve_em_cfl():
    grid = LatticeGrid(shape=(4, 4, 4), spacing=0.5)
    state = {"A": np.zeros((4, 4, 4, 3)), "F0": np.zeros((4, 4, 4, 3))}
    with pytest.raises(CFLError):
        evolve_em(state, grid, dt=0.6, steps=1)


def test_gauss_conservation_telescopes(rng):
    # derived oracle: each electric increment is a discrete divergence of an
    # antisymmetric flux, so the Gauss density change telescopes to zero
    grid = LatticeGrid(shape=(6, 6, 6))
    state = divergence_free_em_data(grid, rng)
    _, gauss = evolve_em(state, grid, dt=0.2, steps=200)
    assert gauss.max() - gauss[0] < 1e-13


def _evolve_em_reference(state, grid, dt, steps):
    """The site-major leapfrog on rolled differences that ``evolve_em``
    reproduces bit for bit: every flux F_jl, zero terms included."""
    def divergence(flux):
        out = np.zeros(np.shape(flux[0]))
        for i in range(grid.ndim):
            out += _diff_reference(grid, flux[i], i)
        return out

    def rhs(A):
        dA = np.stack([_diff_reference(grid, A, j) for j in range(grid.ndim)])  # d_j A_l
        return divergence(dA - np.swapaxes(dA, 0, -1))

    def max_gauss(F0):
        return float(np.max(np.abs(divergence(np.moveaxis(F0, -1, 0)))))

    A, F0 = np.array(state["A"], float), np.array(state["F0"], float)
    gauss = [max_gauss(F0)]
    half = F0 + 0.5 * dt * rhs(A)
    for _ in range(steps):
        A = A + dt * half
        force = rhs(A)
        F0 = half + 0.5 * dt * force
        gauss.append(max_gauss(F0))
        half = half + dt * force
    return {"A": A, "F0": F0}, np.array(gauss)


# explicit ids keep each case's name as it was when the suite also held 1- and
# 2-axis grids, which the em chart's three tangential axes now refuse
@pytest.mark.parametrize("shape, spacing, dt", [
    pytest.param((6, 6, 6), 1.0, 0.2, id="shape0-1.0-0.2"),
    pytest.param((4, 6, 8), 1.0, 0.3, id="shape1-1.0-0.3"),
    pytest.param((8, 1, 5), 1.0, 0.25, id="shape2-1.0-0.25"),
    pytest.param((6, 6, 6), 0.3, 0.25, id="shape4-0.3-0.25"),
    pytest.param((4, 1, 1), 1.0, 0.3, id="shape6-1.0-0.3"),
    pytest.param((1, 6, 1), 1.0, 0.3, id="shape7-1.0-0.3"),
])
def test_evolve_em_is_bit_identical_to_the_site_major_stencil(rng, shape, spacing, dt):
    grid = LatticeGrid(shape=shape, spacing=spacing)
    state = {k: rng.standard_normal(shape + (len(shape),)) for k in ("A", "F0")}
    before = {k: v.copy() for k, v in state.items()}
    final, gauss = evolve_em(state, grid, dt=dt, steps=40)
    want, want_gauss = _evolve_em_reference(state, grid, dt, 40)
    assert np.array_equal(final["A"], want["A"]) and np.array_equal(final["F0"], want["F0"])
    assert np.array_equal(gauss, want_gauss)
    assert all(np.array_equal(state[k], before[k]) for k in state)


def test_em_leapfrog_copies_its_arguments(rng):
    # the flow's stacked buffer holds copies: stepping it leaves the caller's
    # arrays as they were, whatever their layout, and a transposed,
    # non-contiguous state steps as its contiguous copy does
    grid = LatticeGrid(shape=(4, 5, 6))
    state = {"A": rng.standard_normal((4, 5, 6, 3)), "F0": rng.standard_normal((3, 6, 5, 4)).T}
    assert not state["F0"].flags.c_contiguous and state["F0"].shape == (4, 5, 6, 3)
    before = {k: v.copy() for k, v in state.items()}
    final, gauss = evolve_em(state, grid, dt=0.3, steps=5)
    assert all(np.array_equal(state[k], before[k]) for k in state)
    assert not any(np.shares_memory(final[k], state[j]) for k in final for j in state)
    want, want_gauss = evolve_em(before, grid, dt=0.3, steps=5)
    assert all(np.array_equal(final[k], want[k]) for k in final) and np.array_equal(gauss, want_gauss)


def test_gauss_law_commutes_with_the_curved_hamiltonian(rng):
    # a curved metric is a binding of the em chart: the vector field of every
    # smeared Gauss generator is a gauge direction, along which the curved
    # hamiltonian is constant
    model, _ = curved_em_model()
    state = model.random_state(rng)
    omega = assemble_two_form(model, state)
    J = TH.constraint_set("em")["J"]
    dH = model.density_gradient(model.chart.hamiltonian, state)
    a1 = next(g for (g,), _ in model.chart.alpha.terms if g.comp == (1,))
    d_a1_sq = model.density_gradient(E.Expr.var(a1) ** 2, state)
    for _ in range(5):
        dJ = model.density_gradient(J, state, random_smear(model, J, rng))
        assert abs(poisson_bracket(dJ, dH, omega)) <= 1e-12
        # negative control: A[1]^2 is not gauge invariant
        assert abs(poisson_bracket(dJ, d_a1_sq, omega)) >= 0.1


def test_em_dispersion_matches_discrete_oracle():
    # closed-form oracle: a transverse plane-wave mode of the centered-difference
    # leapfrog scheme oscillates at omega = (2/dt) asin(dt*ktilde/2) with
    # ktilde = sin(k h)/h; starting from (A, F0=0) realizes the exact discrete
    # standing mode
    n, h, dt, steps = 16, 1.0, 0.2, 50
    grid = LatticeGrid(shape=(n, n, n), spacing=h)
    k = 2 * np.pi * 3 / (n * h)
    x = np.arange(n) * h
    A = np.zeros((n, n, n, 3))
    A[..., 1] = np.cos(k * x)[:, None, None]
    state = {"A": A, "F0": np.zeros((n, n, n, 3))}
    final, _ = evolve_em(state, grid, dt=dt, steps=steps)
    ktilde = np.sin(k * h) / h
    omega_num = (2.0 / dt) * np.arcsin(dt * ktilde / 2.0)
    expected = np.cos(k * x)[:, None, None] * np.cos(omega_num * steps * dt)
    assert np.abs(final["A"][..., 1] - expected).max() < 1e-8
    assert np.abs(final["A"][..., 0]).max() < 1e-12


def _planned(model, state, outputs=None, reads=()):
    """The planned flow of the model's chart (``lattice._Flow``) run at
    ``state``: its field, site-major as ``hamiltonian_vector_field`` returns
    it, and its reads."""
    outputs = tuple(range(model.nslots)) if outputs is None else outputs
    flow = lattice._Flow(model, outputs, reads)
    np.copyto(flow.state, model.state_to_vector(state).T.reshape(flow.state.shape))
    lattice._run(flow.diff_calls + flow.read_calls + flow.field_calls)
    return flow.field.reshape(len(outputs), model.grid.nsites).T, flow.reads


def _chart_field(model, state):
    omega = assemble_two_form(model, state)
    X, res = hamiltonian_vector_field(omega, model.density_gradient(model.chart.hamiltonian, state))
    assert res == 0.0
    return X


@pytest.mark.parametrize("name, shape", [("scalar", (32,)), ("em", (6, 5, 4)), ("em", (16, 16, 16))])
def test_each_stepper_rhs_is_the_chart_hamiltonian_vector_field(name, shape):
    # the steppers' right-hand side, planned off the folded chart, is the
    # vector field of the chart's own hamiltonian under flat bindings, bit
    # for bit, and so is evolve_em's force alone
    t = TH.builtin(name)
    grid = LatticeGrid(shape=shape)
    model = LatticeModel(TH.chart(name), grid, bindings=TH.flat_metric_bindings(t))
    state = model.random_state(np.random.default_rng(3))
    planned, _ = _planned(model, state)
    assert np.array_equal(planned, _chart_field(model, state))
    if name == "em":
        F0 = [model.slot_index[("F0", c)] for c in model.field_comps["F0"]]
        assert np.array_equal(_planned(model, state, tuple(F0))[0], planned[:, F0])
        # negative control: with the magnetic energy halved, the plan
        # follows the mutated chart, whose force differs
        H = model.chart.hamiltonian
        electric = E.substitute(H, {("A", c): E.ZERO for c in model.field_comps["A"]})
        chart = dataclasses.replace(model.chart, hamiltonian=(H + electric) * E.Expr.const(Fraction(1, 2)))
        mutated = LatticeModel(chart, grid, bindings=model.bindings)
        got, _ = _planned(mutated, state)
        assert np.array_equal(got, _chart_field(mutated, state))
        assert not np.array_equal(got[:, F0], planned[:, F0])


def test_the_flow_planner_refuses_what_it_cannot_plan():
    # a hamiltonian that is not quadratic (V(q)), a background bound to an
    # array (a curved metric), and an inverse 2-form that is not a signed
    # permutation (rh = 2 doubles the 2-form)
    flat = TH.flat_metric_bindings(TH.builtin("em"))
    heavy = LatticeModel(TH.chart("em"), LatticeGrid(shape=(4, 4, 4)), bindings={**flat, "rh": 2.0})
    for model, message in ((mech_model(), "not linear"), (curved_em_model()[0], "neither a state slot"),
                           (heavy, "not 0 or ±1")):
        with pytest.raises(ValueError, match=message):
            lattice._Flow(model, tuple(range(model.nslots)))
    # the em chart has three tangential axes, so evolve_em needs three
    with pytest.raises(ValueError, match="3 tangential directions"):
        evolve_em({k: np.zeros((6, 5, 2)) for k in ("A", "F0")}, LatticeGrid(shape=(6, 5)), 0.2, 1)


# ---------------------------------------------------------------------------
# symplectic current
# ---------------------------------------------------------------------------

def test_symplectic_current_second_order(rng):
    model, grid = scalar_model((16,))

    def smooth(a):
        for _ in range(5):
            a = grid.smooth(a)
        return a

    x0 = {"phi": smooth(rng.standard_normal(16)), "phi0": smooth(rng.standard_normal(16))}
    y0 = {"phi": smooth(rng.standard_normal(16)), "phi0": smooth(rng.standard_normal(16))}
    omega = assemble_two_form(model, model.zero_state())
    dts = (0.2, 0.1, 0.05)
    defects = [symplectic_current_check(omega, x0, y0, int(2 / dt), int(6 / dt), dt) for dt in dts]
    order, *_ = VF._convergence_order(dts, defects)
    assert 1.8 <= order <= 2.2


def test_current_order_is_two_at_every_seed():
    # seeds 7, 11, 24 and 31 failed the mean of pairwise log2 ratios (2.30,
    # 1.79, 1.58, 1.54); seed 19's defects change sign between dts
    golden = TH.golden("scalar")
    for seed in range(40):
        entry = VF.check_lattice("scalar", golden, seed=seed)["entries"]["current_order"]
        assert entry["pass"] and abs(entry["order"] - 2.0) <= 0.06, (seed, entry)


def test_current_order_fails_with_a_first_order_integrator(monkeypatch):
    # negative control: one of the two integrators drifts at first order
    rk = lattice._rk_evolve

    def euler_for_third_order(z, rhs, dt, steps, record, order):
        if order != 3:
            return rk(z, rhs, dt, steps, record, order)
        out = {}
        for n in range(steps + 1):
            if n in record:
                out[n] = z
            z = z + dt * rhs(z)
        return out

    monkeypatch.setattr(lattice, "_rk_evolve", euler_for_third_order)
    for seed in (0, 7, 24):
        entry = VF.check_lattice("scalar", TH.golden("scalar"), seed=seed)["entries"]["current_order"]
        assert not entry["pass"] and abs(entry["order"] - 1.0) <= 0.05, (seed, entry)


def _symplectic_current_reference(omega, X0, Y0, step_a, step_b, dt):
    """The allocating scalar stepper that ``symplectic_current_check``
    reproduces bit for bit: a new right-hand side from rolled differences at
    every stage, and the two Runge-Kutta maps on fresh arrays."""
    model = omega.model
    grid = model.grid

    def rhs(z):
        out = np.empty_like(z)
        out[0] = z[1]
        out[1] = np.zeros(grid.shape)
        for j in range(grid.ndim):
            out[1] += _diff_reference(grid, _diff_reference(grid, z[0], j), j)
        return out

    def evolve(z, order):
        out = {}
        for n in range(1, max(step_a, step_b) + 1):
            k1 = rhs(z)
            if order == 2:
                z = z + dt * rhs(z + 0.5 * dt * k1)
            else:
                k2 = rhs(z + 0.5 * dt * k1)
                k3 = rhs(z + dt * (2.0 * k2 - k1))
                z = z + dt * (k1 + 4.0 * k2 + k3) / 6.0
            out[n] = z
        return out

    x, y = (np.stack([np.asarray(Z[k], float).reshape(grid.shape) for k in ("phi", "phi0")])
            for Z in (X0, Y0))
    tx, ty = evolve(x, 2), evolve(y, 3)

    def pairing(step):
        xv, yv = (model.state_to_vector({"phi": z[0][..., None], "phi0": z[1][..., None]})
                  for z in (tx[step], ty[step]))
        return 0.5 * (float(np.sum(xv * omega.apply(yv))) - float(np.sum(yv * omega.apply(xv))))

    return pairing(step_a) - pairing(step_b)


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_symplectic_current_is_bit_identical_to_the_allocating_stepper(seed):
    spec = TH.golden("scalar")["lattice"]
    model, grid = scalar_model(tuple(spec["grid"]))
    omega = assemble_two_form(model, model.zero_state())
    rng = np.random.default_rng(seed)

    def smooth(a):
        for _ in range(6):
            a = grid.smooth(a)
        return a

    x0, y0 = ({k: smooth(rng.standard_normal(grid.shape)) for k in ("phi", "phi0")} for _ in range(2))
    for dt in spec["dts"]:
        steps = (int(round(spec["t_a"] / dt)), int(round(spec["t_b"] / dt)), dt)
        got = symplectic_current_check(omega, x0, y0, *steps)
        assert got == _symplectic_current_reference(omega, x0, y0, *steps), dt


def test_em_gauge_directions_are_null(rng):
    model, grid = em_model((6, 6, 6))
    X = divergence_free_em_data(grid, rng)
    lam = rng.standard_normal(grid.shape)
    Y = {"A": np.stack([grid.diff(lam, i) for i in range(3)], axis=-1),
         "F0": np.zeros(grid.shape + (3,))}
    omega = assemble_two_form(model, model.zero_state())
    xv, yv = model.state_to_vector(X), model.state_to_vector(Y)
    assert abs(float(np.sum(xv * omega.apply(yv)))) <= 1e-10


# ---------------------------------------------------------------------------
# surfaces and coisotropy harness
# ---------------------------------------------------------------------------

def test_surface_tangent_basis_length(rng):
    model = LatticeModel(TH.chart("length"), LatticeGrid(shape=()))
    state = model.random_state(rng)
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    state["u"] = u.reshape(state["u"].shape)
    P = surface_tangent_basis(model, state)
    assert P.shape == (6, 5)
    # tangent vectors annihilate the constraint gradient
    grad = model.density_gradient(model.chart.surface[0], state).reshape(-1)
    assert np.abs(P.T @ grad).max() < 1e-12


def test_coisotropy_off_surface_negative_control(rng):
    model = LatticeModel(TH.chart("pc4"), LatticeGrid(shape=(1, 1, 1)), bindings={"Lam": 0.0})
    cs = TH.constraint_set("pc4")
    state = model.random_state(rng)
    _, violation = coisotropy_check(cs, assemble_two_form(model, state), state, rng, samples=4)
    assert violation > max(1e-3, TH.golden("pc4")["lattice"]["surface_tol"])


@pytest.mark.parametrize("shape", [(8, 8, 8), (6, 5, 4)])
def test_gauss_generator_sums_to_minus_lam_times_gauss(shape):
    # the physics J rests on: summed over sites, alpha(X_lam) equals
    # -sum lam * gauss for the chart's Gauss density, on any state, by
    # summation by parts of the centred stencils.  Negative control: moving
    # every A[j] by d[1]lam matches its own vector field and has zero
    # brackets, as any field-independent direction does, but fails here (and
    # the em check's max_gauss_defect, which reads this sum)
    model, _ = em_model(shape)
    rng = np.random.default_rng(17)
    state = model.random_state(rng)
    gauss = dict(model.chart.constraints)["gauss"]

    def defect(J):
        smear = random_smear(model, J, rng)
        want = -float(np.sum(smear[("lam", ())] * model.evaluate(gauss, state)))
        return abs(float(model.evaluate(J, state, smear).sum()) - want) / abs(want)

    assert defect(TH.constraint_set("em")["J"]) <= 1e-13
    right = TH.gauge_direction("em")
    wrong = TH._alpha_along(model.chart, {slot: right[("A", (1,))] for slot in right})
    assert defect(wrong) > 1e-3


def test_em_check_fails_for_a_gauge_direction_off_the_gauss_law(monkeypatch):
    # the same negative control through ``check_lattice``: the wrong J's
    # vector field is its direction and its brackets vanish, but its site sum
    # is not minus lam times the Gauss density
    right = TH.gauge_direction("em")
    wrong = {slot: right[("A", (1,))] for slot in right}
    monkeypatch.setattr(TH, "gauge_direction", lambda name: wrong)
    TH.constraint_set.cache_clear()
    try:
        for seed in (0, 3, 11):
            report = VF.check_lattice("em", TH.golden("em"), seed=seed)
            entry = report["entries"]["gauge_vector_field"]
            assert not report["passed"] and not entry["pass"], (seed, entry)
            assert entry["max_A_err"] == 0.0 and entry["max_gauss_defect"] > 1e-3, (seed, entry)
    finally:
        TH.constraint_set.cache_clear()


def _one_pc4_state(golden):
    return {**golden, "lattice": {**golden["lattice"], "states": 1}}


@pytest.mark.parametrize("name, entry", [("mechanics", "hamiltonian_flow"),
                                         ("em", "gauge_vector_field"),
                                         ("pc4", "internal_rotation")])
def test_nan_deviation_fails_its_entry(monkeypatch, name, entry):
    # a NaN draw is the worst one (np.max propagates it) and meets no
    # tolerance; max(0.0, nan) would have dropped it
    generator = VF._generator
    monkeypatch.setattr(VF, "_generator",
                        lambda *a: generator(*a)[:2] + (float("nan"),))
    golden = TH.golden(name)
    report = VF.check_lattice(name, _one_pc4_state(golden) if name == "pc4" else golden)
    got = report["entries"][entry]
    assert not got["pass"] and not report["passed"], got
    assert np.isnan(got["max_A_err" if name == "em" else "max_err"])


def test_em_gauge_vector_field_fails_on_its_solve_residual(monkeypatch):
    # the residual the entry reports is held to the tolerance it reports
    generator = VF._generator
    monkeypatch.setattr(VF, "_generator", lambda *a: (generator(*a)[0], 1.0, 0.0))
    got = VF.check_lattice("em", TH.golden("em"))["entries"]["gauge_vector_field"]
    assert not got["pass"] and got["residual"] == 1.0 and got["max_A_err"] == 0.0, got


@pytest.mark.parametrize("name, entry", [("em", "abelian_brackets"), ("pc4", "coisotropy")])
@pytest.mark.parametrize("bad", ["nan", "undefined"])
def test_a_nan_or_undefined_bracket_fails_the_entry(monkeypatch, name, entry, bad):
    # one bad draw among good ones decides the running maximum, wherever it
    # falls: a NaN sticks, and an undefined bracket counts as infinite
    bracket = lattice.poisson_bracket
    calls = []

    def second_is_bad(*args):
        calls.append(None)
        if len(calls) != 2:
            return bracket(*args)
        if bad == "nan":
            return float("nan")
        raise CheckFailure("bracket ill-defined")

    monkeypatch.setattr(lattice, "poisson_bracket", second_is_bad)
    golden = TH.golden(name)
    got = VF.check_lattice(name, _one_pc4_state(golden) if name == "pc4" else golden)["entries"][entry]
    assert not got["pass"] and len(calls) > 2, got
    assert (np.isnan if bad == "nan" else np.isposinf)(got["max_bracket"])


def test_coisotropy_entry_reports_both_tolerances():
    # and holds each value to its own: the bracket to bracket_tol alone, the
    # constraint violation to surface_tol alone
    golden = _one_pc4_state(TH.golden("pc4"))
    got = VF.check_lattice("pc4", golden)["entries"]["coisotropy"]
    assert got["pass"] and (got["tol"], got["surface_tol"]) == (1e-6, 1e-8), got
    assert 0.0 < got["max_bracket"] and 0.0 < got["max_violation"], got
    at = {**golden["lattice"], "bracket_tol": got["max_bracket"], "surface_tol": got["max_violation"]}

    def passes(**tols):
        lattice_spec = {**at, **tols}
        return VF.check_lattice("pc4", {**golden, "lattice": lattice_spec})["entries"]["coisotropy"]["pass"]

    assert passes()
    assert not passes(bracket_tol=0.75 * got["max_bracket"])
    assert not passes(surface_tol=0.75 * got["max_violation"])


def test_em_abelian_brackets_hold_both_values_to_jj_tol():
    # em holds its bracket and its constraint violation to the one jj_tol;
    # its brackets vanish exactly, its violation is roundoff
    golden = TH.golden("em")
    got = VF.check_lattice("em", golden, grid_shape=(6, 5, 4))["entries"]["abelian_brackets"]
    assert got["pass"] and got["tol"] == got["surface_tol"] == golden["lattice"]["jj_tol"], got
    assert got["max_bracket"] == 0.0 < got["max_violation"], got

    def entry(jj_tol):
        tight = {**golden, "lattice": {**golden["lattice"], "jj_tol": jj_tol}}
        return VF.check_lattice("em", tight, grid_shape=(6, 5, 4))["entries"]["abelian_brackets"]

    assert entry(got["max_violation"])["pass"]
    tight = entry(0.75 * got["max_violation"])
    assert not tight["pass"] and tight["max_bracket"] <= tight["tol"], tight


@pytest.mark.parametrize("shape", [(4, 1, 1), (1, 1, 1)])
def test_em_check_on_a_grid_too_thin_to_difference(shape):
    # J vanishes at every draw there, so the Gauss tie compares 0 with 0:
    # it reads 0, with no 0/0 warning
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = VF.check_lattice("em", TH.golden("em"), grid_shape=shape)
    assert report["passed"], report
    assert report["entries"]["gauge_vector_field"]["max_gauss_defect"] == 0.0


@pytest.mark.parametrize("shape", [(16, 16, 16), (6, 5, 4), (8, 1, 5), (4, 1, 1)])
def test_em_gauss_stencil_is_the_chart_gauss_density(shape):
    # gauss_drift reads evolve_em's planned Gauss read, the Gauss tie of
    # gauge_vector_field the chart's gauss density, whose flat bindings are
    # folded into its kernel; em_gauss evaluates that density.  They are
    # one Gauss law
    model, grid = em_model(shape)
    state = model.random_state(np.random.default_rng(23))
    gauss = dict(model.chart.constraints)["gauss"]
    chart_gauss = model.evaluate(gauss, state)
    assert np.array_equal(lattice.em_gauss(grid, state["F0"]), chart_gauss)
    _, (read,) = _planned(model, state, (), (gauss,))
    assert np.array_equal(read, chart_gauss)
    _, series = evolve_em(state, grid, dt=0.5, steps=0)
    assert series.tolist() == [np.abs(chart_gauss).max()]


def test_coisotropy_em_single_family(rng):
    # the single abelian family passes trivially at a Gauss-satisfying state
    model, grid = em_model((6, 6, 6))
    state = divergence_free_em_data(grid, rng)
    bracket, violation = coisotropy_check(TH.constraint_set("em"), assemble_two_form(model, state),
                                          state, rng, samples=6)
    assert bracket <= 1e-10 and violation <= 1e-10


def test_gauge_residual_under_grid_refinement(rng):
    # the gauge generator's vector-field residual stays at machine zero (hence
    # trivially converges at order >= 1) across three grid refinements
    t = TH.builtin("em")
    J = TH.constraint_set("em")["J"]
    residuals = []
    for n, h in ((4, 1.0), (8, 0.5), (16, 0.25)):
        grid = LatticeGrid(shape=(n, n, n), spacing=h)
        model = LatticeModel(TH.chart("em"), grid, bindings=TH.flat_metric_bindings(t))
        state = divergence_free_em_data(grid, rng)
        omega = assemble_two_form(model, state)
        smear = random_smear(model, J, rng)
        _, res = hamiltonian_vector_field(omega, model.density_gradient(J, state, smear))
        residuals.append(res)
    scale = max(1e-300, max(residuals))
    assert all(r <= 1e-12 for r in residuals) or \
        np.log2(residuals[0] / residuals[2]) / 2 >= 1.0
    # coframe-gravity single-site residuals on the constraint surface
    model = LatticeModel(TH.chart("pc4"), LatticeGrid(shape=(1, 1, 1)), bindings={"Lam": 0.0})
    state = TH.pc_on_surface_state(model, np.random.default_rng(77))
    omega = assemble_two_form(model, state)
    for name in ("P", "T"):
        con = TH.constraint_set("pc4")[name]
        smear = random_smear(model, con, rng)
        _, res = hamiltonian_vector_field(omega, model.density_gradient(con, state, smear))
        assert res <= 1e-8


def curved_em_model(shape=(6, 6, 6), seed=5):
    # a smooth positive-definite spatial metric: h = 1 + small symmetric bump
    t = TH.builtin("em")
    grid = LatticeGrid(shape=shape)
    rng = np.random.default_rng(seed)
    bump = grid.smooth(0.15 * rng.standard_normal(shape + (3, 3)))
    h = np.eye(3) + 0.5 * (bump + np.swapaxes(bump, -1, -2))
    hinv = np.linalg.inv(h)
    bindings = {("hinv", (i + 1, j + 1)): hinv[..., i, j] for i in range(3) for j in range(i, 3)}
    bindings["rh"] = np.sqrt(np.linalg.det(h))
    return LatticeModel(TH.chart("em"), grid, bindings=bindings), grid


def pc4_site_model():
    return LatticeModel(TH.chart("pc4"), LatticeGrid(shape=(1, 1, 1)), bindings={"Lam": 0.7})


def _fd_cases():
    model, _ = curved_em_model()
    J = TH.constraint_set("em")["J"]
    yield "em H", model, model.chart.hamiltonian, None
    yield "em J", model, J, random_smear(model, J, np.random.default_rng(2))
    model = pc4_site_model()
    for name, density in TH.constraint_set("pc4").items():
        yield f"pc4 {name}", model, density, random_smear(model, density, np.random.default_rng(3))
    yield "pc4 torsion", model, dict(model.chart.constraints)["omega[0,1,0]"], None


@pytest.mark.parametrize("label,model,density,smear", list(_fd_cases()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_density_gradient_matches_central_differences(label, model, density, smear, rng):
    # derived oracle: centered finite differences of the discretized functional
    state = model.random_state(rng)
    vec = model.state_to_vector(state)

    def value(v):
        s = model.vector_to_state(v)
        return float(model.evaluate(density, s, smear).sum() * model.grid.cell_volume())

    grad = model.density_gradient(density, state, smear)
    step = 1e-6
    for _ in range(20):
        site, slot = rng.integers(model.grid.nsites), rng.integers(model.nslots)
        vp, vm = vec.copy(), vec.copy()
        vp[site, slot] += step
        vm[site, slot] -= step
        fd = (value(vp) - value(vm)) / (2 * step)
        assert abs(grad[site, slot] - fd) <= 1e-6 * max(1.0, abs(fd)), (label, site, slot)


def test_second_pc4_lattice_check_differentiates_nothing(monkeypatch):
    # slot gradients are derived and lowered once per density and slot
    # layout per process, not once per model
    from ktphase import expr, lattice, verify
    golden = TH.golden("pc4")
    golden = {**golden, "lattice": {**golden["lattice"], "states": 1}}
    calls = []
    monkeypatch.setattr(expr, "gradient", lambda *a, f=expr.gradient: calls.append(1) or f(*a))
    lattice._gradient_kernel.cache_clear()
    verify.check_lattice("pc4", golden, seed=0)
    assert calls  # the counter sees the first check's derivations
    calls.clear()
    verify.check_lattice("pc4", golden, seed=0)
    assert calls == []


# ---------------------------------------------------------------------------
# scalar bindings folded into the exact expression
# ---------------------------------------------------------------------------

def _flat_models(name, shape):
    """The chart on ``shape`` under flat bindings, folded, and under the
    same values bound as constant grid arrays, which stay kernel columns."""
    grid = LatticeGrid(shape=shape)
    flat = TH.flat_metric_bindings(TH.builtin(name))
    arrays = {key: np.full(shape, value) for key, value in flat.items()}
    return LatticeModel(TH.chart(name), grid, flat), LatticeModel(TH.chart(name), grid, arrays)


@pytest.mark.parametrize("name, shape", [("em", (6, 5, 4)), ("em", (16, 16, 16)), ("scalar", (32,))])
def test_folded_scalar_bindings_equal_constant_array_bindings(name, shape):
    folded, arrays = _flat_models(name, shape)
    rng = np.random.default_rng(41)
    state = folded.random_state(rng)
    cases = [(folded.chart.hamiltonian, None)]
    if name == "em":
        J = TH.constraint_set("em")["J"]
        cases += [(dict(folded.chart.constraints)["gauss"], None), (J, random_smear(folded, J, rng))]
    for density, smear in cases:
        for method in ("evaluate", "density_gradient"):
            got, want = (getattr(m, method)(density, state, smear) for m in (folded, arrays))
            assert np.array_equal(got, want), (method, density)


def test_a_scalar_binding_gets_no_kernel_column(monkeypatch):
    folded, arrays = _flat_models("em", (6, 5, 4))
    state = folded.random_state(np.random.default_rng(5))
    gauss = dict(folded.chart.constraints)["gauss"]
    columns = []
    run = lattice.Lowered.run
    monkeypatch.setattr(lattice.Lowered, "run", lambda low, *a: columns.append(low.cols) or run(low, *a))
    for model in (folded, arrays):
        model.evaluate(gauss, state)
    folded_cols, array_cols = ({v.field for v in cols} for cols in columns)
    assert folded_cols == {"F0"}
    assert {"hinv", "rh"} <= array_cols  # the control: arrays are columns


def test_a_smear_overrides_a_scalar_binding():
    # random_smear draws hinv for scalar's hamiltonian: the smear, not the
    # flat binding of hinv, is evaluated
    model, grid = scalar_model((32,))
    H = model.chart.hamiltonian
    rng = np.random.default_rng(9)
    state = model.random_state(rng)
    smear = random_smear(model, H, rng)
    assert list(smear) == [("hinv", (1, 1))]
    rebound = LatticeModel(model.chart, grid, {**model.bindings, **smear})
    for method in ("evaluate", "density_gradient"):
        got = getattr(model, method)(H, state, smear)
        assert np.array_equal(got, getattr(rebound, method)(H, state))
        assert not np.array_equal(got, getattr(model, method)(H, state))


def test_a_negative_power_of_a_folded_scalar():
    # mechanics' motion -V'(q)/m carries m^-1: m is folded exactly, and a
    # zero under the negative power raises, naming the symbol
    H = TH.chart("mechanics").hamiltonian
    sym = {w.field: E.Expr.var(w) for w in H.jet_vars()}
    motion = -E.apply_fn("V", 1, sym["q"]) / sym["m"]
    model = mech_model(m=2.0)
    state = model.random_state(np.random.default_rng(4))
    q = state["q"][..., 0]
    assert model.evaluate(motion, state) == -q ** 3 / 2.0
    with pytest.raises(ZeroDivisionError, match=r"\bm\b"):
        mech_model(m=0.0).evaluate(motion, state)


# ---------------------------------------------------------------------------
# derivatives along length-1 axes folded to zero
# ---------------------------------------------------------------------------

def _site_point(model, state, e, smear=None):
    """The binding of ``e``'s jets at the one site: derivatives 0, then the
    state, the smear and the model's scalar bindings."""
    values = {(f, c): float(state[f].reshape(-1)[i]) for f, comps in model.field_comps.items()
              for i, c in enumerate(comps)}
    values.update({key: float(np.asarray(a).reshape(())) for key, a in (smear or {}).items()})
    values.update({(k, ()) if isinstance(k, str) else k: v for k, v in model.bindings.items()})
    return {v: 0.0 if v.deriv else values[(v.field, v.comp)] for v in e.jet_vars()}


def _pc4_site_cases(model, rng):
    for name, density in model.chart.constraints:
        yield name, density, None
    for name, density in TH.constraint_set("pc4").items():
        yield name, density, random_smear(model, density, rng)


def test_pc4_site_kernels_match_the_exact_walk_with_derivatives_at_zero():
    model = pc4_site_model()
    rng = np.random.default_rng(17)
    state = model.random_state(rng)
    for name, density, smear in _pc4_site_cases(model, rng):
        point = _site_point(model, state, density, smear)
        want = E.evaluate(density, point)
        got = float(model.evaluate(density, state, smear).reshape(()))
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), name
        # a derivative jet's gradient enters through its transposed stencil,
        # which is zero along a length-1 axis
        partials = E.gradient(density)
        grad = model.density_gradient(density, state, smear)
        for j, (field, comp) in enumerate(model.slots):
            v = next((v for v in partials if (v.field, v.comp, v.deriv) == (field, comp, ())), None)
            want = 0.0 if v is None else E.evaluate(partials[v], point)
            assert abs(grad[0, j] - want) <= 1e-12 * max(1.0, abs(want)), (name, field, comp)


def test_a_pc4_lattice_check_differences_nothing(monkeypatch):
    golden = TH.golden("pc4")
    golden = {**golden, "lattice": {**golden["lattice"], "states": 2}}
    diffs, columns = [], []
    diff, run = LatticeGrid.diff, lattice.Lowered.run
    monkeypatch.setattr(LatticeGrid, "diff", lambda *a: diffs.append(1) or diff(*a))
    monkeypatch.setattr(lattice.Lowered, "run", lambda low, *a: columns.extend(low.cols) or run(low, *a))
    assert VF.check_lattice("pc4", golden, seed=0)["passed"]
    assert columns and not [v for v in columns if v.deriv]
    assert diffs == []


def test_a_negative_power_of_a_derivative_along_a_length_1_axis():
    torsion = dict(TH.chart("pc4").constraints)["omega[0,1,0]"]
    v = next(v for v in torsion.jet_vars() if v.field == "e" and v.deriv)
    inverse = E.Expr.var(v) ** -1
    grid = LatticeGrid(shape=(4, 4, 4))
    model = LatticeModel(TH.chart("pc4"), grid, bindings={"Lam": 0.7})
    state = model.random_state(np.random.default_rng(6))
    assert np.all(np.isfinite(model.evaluate(inverse, state)))  # the control: nothing folds
    site = pc4_site_model()
    with pytest.raises(ZeroDivisionError, match=re.escape(E.to_text(E.Expr.var(v)))):
        site.evaluate(inverse, site.random_state(np.random.default_rng(6)))


@pytest.mark.parametrize("shape", [(8, 1, 5), (4, 1, 1)])
def test_em_on_length_1_axes_is_bit_identical_to_the_unfolded_kernels(shape):
    # the reference keeps every derivative jet as a kernel column, which the
    # centered difference along a length-1 axis binds to zeros; terms sum in
    # order on these grids, and x + 0.0 == x
    model, grid = em_model(shape)
    reference, _ = em_model(shape)
    reference._ultralocal = frozenset()
    rng = np.random.default_rng(23)
    state = model.random_state(rng)
    J = TH.constraint_set("em")["J"]
    cases = [(model.chart.hamiltonian, None), (dict(model.chart.constraints)["gauss"], None),
             (J, random_smear(model, J, rng))]
    flat = {c for c, n in zip(model.chart.tangential, shape) if n == 1}
    for density, smear in cases:
        for method in ("evaluate", "density_gradient"):
            got, want = (getattr(m, method)(density, state, smear) for m in (model, reference))
            assert np.array_equal(got, want), (method, density)
        folded, unfolded = (lattice._density_kernel((density,), m._folded(smear)).cols
                            for m in (model, reference))
        assert not [v for v in folded if flat & set(v.deriv)]
        assert [v for v in unfolded if flat & set(v.deriv)]  # the control


# ---------------------------------------------------------------------------
# several densities in one kernel
# ---------------------------------------------------------------------------

def test_the_batched_surface_kernels_equal_the_per_density_values():
    model = pc4_site_model()
    rng = np.random.default_rng(12)
    state = TH.pc_on_surface_state(model, rng)
    state["omega"] = state["omega"] + 0.1 * rng.standard_normal(state["omega"].shape)  # off the surface
    densities = TH._pc_surface(model)
    assert len(densities) == 10
    values = model.evaluate(densities, state)
    grads = model.density_gradient(densities, state)
    assert values.shape == (10, 1, 1, 1) and grads.shape == (10, 1, model.nslots)
    SR = TH.pc_structural_rows(state["e"].reshape(4, 3))
    residual = TH._pc_surface_residual(model, state, SR)
    for k, density in enumerate(densities):
        want = model.evaluate(density, state)
        np.testing.assert_allclose(values[k], want, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(residual[k], want.reshape(()), rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(grads[k], model.density_gradient(density, state), rtol=1e-13, atol=1e-14)


def test_batched_kernels_on_a_grid_are_bit_identical_per_density():
    model, _ = em_model((6, 5, 4))
    rng = np.random.default_rng(3)
    state = model.random_state(rng)
    densities = (model.chart.hamiltonian, dict(model.chart.constraints)["gauss"])
    values, grads = model.evaluate(densities, state), model.density_gradient(densities, state)
    for k, density in enumerate(densities):
        assert np.array_equal(values[k], model.evaluate(density, state))
        assert np.array_equal(grads[k], model.density_gradient(density, state))
