"""Right-invariant metrics, brackets, curvature, and the product structure."""

import numpy as np
import pytest

from hsgeo import geometry as g
from hsgeo.data import casimir, preset
from hsgeo.errors import DegeneratePlane
from hsgeo.geometry import (
    KTangent,
    TangentPair,
    arnold_curvature,
    b_operator,
    bracket,
    christoffel,
    identity_defects,
    j_tensor,
    k_curvature,
    metric_G,
    metric_K,
    nijenhuis,
    omega_form,
)
from hsgeo.grid import (
    GridFunction,
    a_inverse,
    antiderivative_from_zero,
    derivative,
    integrate,
    mean_zero_project,
)
from hsgeo.sphere import GroupElement
from conftest import GRID, rand_u1, rand_u2

RNG = np.random.default_rng(11)
X = GRID.x


def _pair(const=True, rng=RNG):
    return TangentPair(rand_u1(GRID, rng), rand_u2(GRID, rng, const=const))


def _rand_base(rng=RNG):
    s = rand_u2(GRID, rng, modes=4, const=False)
    w = np.exp(0.3 * s.values)
    w /= w.mean()
    phi = antiderivative_from_zero(GridFunction(GRID, w))
    return GroupElement(phi, rand_u2(GRID, rng, modes=4))


def _compose(f, phi):
    return GRID.function(f.eval_at(np.mod(phi.values, 1.0)))


# ---- metric ----


def test_metric_worked_values():
    u = TangentPair(GRID.sample(lambda x: np.sin(2 * np.pi * x) / (2 * np.pi)), GRID.zero())
    v = TangentPair(GRID.zero(), GRID.constant(1.0))
    assert abs(metric_G(u, u, -1) - 0.125) < 1e-15
    assert abs(metric_G(v, v, -1) + 0.25) < 1e-15


def test_metric_is_right_invariant():
    base = _rand_base()
    u, v = _pair(), _pair()
    for kappa in (-1, 1):
        ub = TangentPair(_compose(u.u1, base.phi), _compose(u.u2, base.phi), base=base)
        vb = TangentPair(_compose(v.u1, base.phi), _compose(v.u2, base.phi), base=base)
        assert abs(metric_G(ub, vb, kappa) - metric_G(u, v, kappa)) < 1e-10


def test_metric_of_initial_data_is_the_conserved_class():
    for name in ("fig1a", "fig1c", "spacelike", "lightlike"):
        d = preset(name)
        U = TangentPair(d.u0, d.rho0)
        assert abs(metric_G(U, U, d.kappa) - casimir(d)) < 1e-14


# ---- bracket ----


def test_bracket_is_alternating():
    u = _pair()
    b = bracket(u, u)
    assert b.u1.sup_norm() < 1e-14
    assert b.u2.sup_norm() < 1e-14


def test_bracket_antisymmetry():
    u, v = _pair(), _pair()
    a, b = bracket(u, v), bracket(v, u)
    assert (a.u1 + b.u1).sup_norm() < 1e-11
    assert (a.u2 + b.u2).sup_norm() < 1e-11


def test_bracket_jacobi_identity():
    u, v, w = _pair(), _pair(), _pair()
    j1 = bracket(u, bracket(v, w))
    j2 = bracket(v, bracket(w, u))
    j3 = bracket(w, bracket(u, v))
    assert (j1.u1 + j2.u1 + j3.u1).sup_norm() < 1e-9
    assert (j1.u2 + j2.u2 + j3.u2).sup_norm() < 1e-9


def test_bracket_of_decoupled_slots_vanishes():
    u = TangentPair(GRID.sample(lambda x: np.sin(2 * np.pi * x) / (2 * np.pi)), GRID.zero())
    v = TangentPair(GRID.zero(), GRID.constant(1.0))
    b = bracket(u, v)
    assert b.u1.sup_norm() < 1e-15
    assert b.u2.sup_norm() < 1e-15


# ---- transpose operator ----


def test_b_operator_of_zero():
    z = TangentPair(GRID.zero(), GRID.zero())
    b = b_operator(z, z, -1)
    assert b.u1.sup_norm() == 0.0
    assert b.u2.sup_norm() == 0.0


def test_b_operator_duality_against_mean_zero_fields():
    u, v = _pair(), _pair()
    w = TangentPair(
        GRID.sample(lambda x: np.sin(2 * np.pi * x) + 0.3 * np.sin(8 * np.pi * x)),
        rand_u2(GRID, RNG),
    )
    for kappa in (-1, 1):
        lhs = metric_G(b_operator(u, v, kappa), w, kappa)
        rhs = metric_G(u, bracket(v, w), kappa)
        assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-7


def test_b_operator_scalar_reduction():
    u = TangentPair(rand_u1(GRID, RNG), GRID.zero())
    v = TangentPair(rand_u1(GRID, RNG), GRID.zero())
    b = b_operator(u, v, -1)
    u1xx = derivative(derivative(u.u1))
    expect = a_inverse(u1xx * derivative(v.u1) + derivative(u1xx * v.u1), demean=True)
    expect = expect - expect.values[0]
    got = b.u1 - b.u1.values[0]
    assert (got - expect).sup_norm() < 1e-9
    assert b.u2.sup_norm() < 1e-12


# ---- curvature at the group level ----


def test_curvature_equals_the_metric_product():
    for kappa in (-1, 1):
        for _ in range(10):
            u, v = _pair(), _pair()
            lhs = arnold_curvature(u, v, kappa)
            rhs = metric_G(u, u, kappa) * metric_G(v, v, kappa) - metric_G(u, v, kappa) ** 2
            assert abs(lhs - rhs) / max(1.0, abs(rhs)) < 1e-9


def test_curvature_degenerate_plane_is_zero():
    u = _pair()
    assert abs(arnold_curvature(u, u, -1)) < 1e-12


def test_curvature_worked_value():
    u = TangentPair(GRID.sample(lambda x: np.sin(2 * np.pi * x) / (2 * np.pi)), GRID.zero())
    v = TangentPair(GRID.zero(), GRID.constant(1.0))
    assert abs(arnold_curvature(u, v, -1) + 1.0 / 32.0) < 1e-14


def test_pure_velocity_curvature_ignores_the_coupling_sign():
    u = TangentPair(rand_u1(GRID, RNG), GRID.zero())
    v = TangentPair(rand_u1(GRID, RNG), GRID.zero())
    assert abs(arnold_curvature(u, v, -1) - arnold_curvature(u, v, 1)) < 1e-12


# ---- connection ----


def test_christoffel_of_zero():
    z = TangentPair(GRID.zero(), GRID.zero())
    g = christoffel(z, z)
    assert g.u1.sup_norm() == 0.0
    assert g.u2.sup_norm() == 0.0


def test_christoffel_is_symmetric():
    u, v = _pair(), _pair()
    a, b = christoffel(u, v), christoffel(v, u)
    assert (a.u1 - b.u1).sup_norm() < 1e-12
    assert (a.u2 - b.u2).sup_norm() < 1e-12


def test_christoffel_reproduces_flow_acceleration():
    d = preset("fig1c")
    gr = d.grid
    t = 0.7
    c = casimir(d)
    u0x, rho0 = d.u0x.values, d.rho0.values
    r = np.sqrt(-c)
    a, b = np.cosh(r * t), np.sinh(r * t) / r
    ad, bd = -c * b, a
    f1, f2 = a + 0.5 * b * u0x, 0.5 * b * rho0
    g1, g2 = ad + 0.5 * bd * u0x, 0.5 * bd * rho0
    phi_x = f1**2 - f2**2
    phi = antiderivative_from_zero(gr.function(phi_x - 1.0)) + gr.function(gr.x)
    alpha = gr.function(np.log((f1 + f2) / (f1 - f2)))
    base = GroupElement(phi, alpha)
    vel = TangentPair(
        antiderivative_from_zero(gr.function(2.0 * (f1 * g1 - f2 * g2))),
        gr.function((g1 + g2) / (f1 + f2) - (g1 - g2) / (f1 - f2)),
        base=base,
    )
    gam = christoffel(vel, vel, at=base)
    acc1 = antiderivative_from_zero(gr.function(2.0 * (g1**2 - g2**2 - c * phi_x)))
    acc2 = gr.function(-((g1 + g2) / (f1 + f2)) ** 2 + ((g1 - g2) / (f1 - f2)) ** 2)
    assert (gam.u1 - acc1).sup_norm() < 1e-8
    assert (gam.u2 - acc2).sup_norm() < 1e-8


# ---- quotient metric and its curvature ----


def _ua(a):
    return KTangent(
        GRID.function((1 - np.cos(2 * np.pi * X)) / (2 * np.pi)),
        GRID.function(np.sqrt(1 + a) * np.sin(4 * np.pi * X)),
    )


_V = KTangent(
    GRID.function((1 - np.cos(6 * np.pi * X)) / (6 * np.pi)),
    GRID.function(0.5 * np.sin(2 * np.pi * X)),
)


def test_quotient_metric_worked_family():
    for a in (0.5, -0.5, 0.1, -0.1, 0.01, -0.01):
        ua = _ua(a)
        assert abs(metric_K(ua, ua) - (-a / 8)) < 1e-12
        assert abs(metric_K(_V, _V) - 3 / 32) < 1e-12
        assert abs(metric_K(ua, _V)) < 1e-12


def test_quotient_curvature_blows_up_as_the_plane_degenerates():
    for a in (0.1, -0.1):
        assert abs(k_curvature(_ua(a), _V) - (1 + 1 / a)) < 1e-8 * abs(1 + 1 / a)


def test_quotient_curvature_rejects_degenerate_planes():
    with pytest.raises(DegeneratePlane):
        k_curvature(_ua(0.5), _ua(0.5))


def test_orthogonal_symplectic_planes_have_unit_curvature():
    u = KTangent(GRID.function((1 - np.cos(2 * np.pi * X)) / (2 * np.pi)), GRID.zero())
    v = KTangent(GRID.function((1 - np.cos(4 * np.pi * X)) / (4 * np.pi)), GRID.zero())
    assert abs(omega_form(u.as_pair(), v.as_pair())) < 1e-15
    assert abs(k_curvature(u, v) - 1.0) < 1e-10


# ---- product structure ----


def _k_pair(rng=RNG):
    return TangentPair(rand_u1(GRID, rng), mean_zero_project(rand_u2(GRID, rng)))


def test_j_squared_is_the_identity():
    for _ in range(10):
        u = _k_pair()
        jj = j_tensor(j_tensor(u))
        assert (jj.u1 - u.u1).sup_norm() < 1e-11
        assert (jj.u2 - u.u2).sup_norm() < 1e-11


def test_omega_is_the_j_twisted_metric():
    for _ in range(10):
        u, v = _k_pair(), _k_pair()
        ju = j_tensor(u)
        lhs = omega_form(u, v)
        rhs = metric_K(KTangent(ju.u1, ju.u2), KTangent(v.u1, v.u2))
        assert abs(lhs - rhs) < 1e-11


def test_j_is_an_anti_isometry():
    for _ in range(10):
        u, v = _k_pair(), _k_pair()
        ju, jv = j_tensor(u), j_tensor(v)
        lhs = metric_K(KTangent(ju.u1, ju.u2), KTangent(jv.u1, jv.u2))
        rhs = metric_K(KTangent(u.u1, u.u2), KTangent(v.u1, v.u2))
        assert abs(lhs + rhs) < 1e-11


def test_product_structure_holds_off_the_identity():
    base = _rand_base()
    for _ in range(5):
        u = TangentPair(rand_u1(GRID, RNG), mean_zero_project(rand_u2(GRID, RNG)), base=base)
        v = TangentPair(rand_u1(GRID, RNG), mean_zero_project(rand_u2(GRID, RNG)), base=base)
        ju, jv = j_tensor(u), j_tensor(v)
        jj = j_tensor(ju)
        assert (jj.u1 - u.u1).sup_norm() < 1e-10
        assert abs(omega_form(u, v) - metric_K(KTangent(ju.u1, ju.u2), KTangent(v.u1, v.u2), at=base)) < 1e-10
        assert (
            abs(
                metric_K(KTangent(ju.u1, ju.u2), KTangent(jv.u1, jv.u2), at=base)
                + metric_K(KTangent(u.u1, u.u2), KTangent(v.u1, v.u2), at=base)
            )
            < 1e-10
        )


def test_omega_is_antisymmetric():
    u, v = _k_pair(), _k_pair()
    assert abs(omega_form(u, u)) < 1e-15
    assert abs(omega_form(u, v) + omega_form(v, u)) < 1e-13


def test_omega_worked_value():
    for a in (0.5, -0.01):
        assert abs(omega_form(_ua(a).as_pair(), _V.as_pair()) - 1.0 / 16.0) < 1e-12


def test_omega_is_right_invariant():
    base = _rand_base()
    u, v = _k_pair(), _k_pair()
    ub = TangentPair(_compose(u.u1, base.phi), _compose(u.u2, base.phi), base=base)
    vb = TangentPair(_compose(v.u1, base.phi), _compose(v.u2, base.phi), base=base)
    assert abs(omega_form(ub, vb) - omega_form(u, v)) < 1e-8


def test_torsion_of_the_product_structure_vanishes():
    for _ in range(10):
        u, v = _k_pair(), _k_pair()
        n = nijenhuis(u, v)
        assert n.u1.sup_norm() < 1e-7
        assert n.u2.sup_norm() < 1e-7


def test_torsion_degenerate_arguments():
    u = _k_pair()
    z = TangentPair(GRID.zero(), GRID.zero())
    n = nijenhuis(u, u)
    assert n.u1.sup_norm() == 0.0 and n.u2.sup_norm() == 0.0
    n = nijenhuis(u, z)
    assert n.u1.sup_norm() == 0.0 and n.u2.sup_norm() == 0.0


# ---- sample-array kernels ----


def _stack(pairs):
    return np.array([[p.u1.values, p.u2.values] for p in pairs])


def _as_array(p):
    return np.array([p.u1.values, p.u2.values])


def test_batched_kernels_equal_the_public_wrappers():
    # each public function wraps one kernel; a batch of S pair arrays gives,
    # row by row, exactly what the wrapper gives for one pair
    rng = np.random.default_rng(23)
    us, vs = [_k_pair(rng) for _ in range(4)], [_k_pair(rng) for _ in range(4)]
    U, V = _stack(us), _stack(vs)
    base = _rand_base(rng)
    px = base.phi_x.values
    got = {k: g._metric(U, V, k) for k in (-1, 1)}
    for i, (u, v) in enumerate(zip(us, vs)):
        for k in (-1, 1):
            assert got[k][i] == metric_G(u, v, k)
            assert g._arnold(U, V, k)[i] == arnold_curvature(u, v, k)
            assert np.array_equal(g._b_operator(U, V, k)[i], _as_array(b_operator(u, v, k)))
        assert np.array_equal(g._bracket(U, V)[i], _as_array(bracket(u, v)))
        assert np.array_equal(g._j_tensor(U)[i], _as_array(j_tensor(u)))
        assert g._omega(U, V)[i] == omega_form(u, v)
        assert np.array_equal(g._nijenhuis(U, V)[i], _as_array(nijenhuis(u, v)))
        uk, vk = KTangent(u.u1, u.u2), KTangent(v.u1, v.u2)
        assert g._metric_K(U, V)[i] == metric_K(uk, vk)
        assert g._metric_K(U, V, px)[i] == metric_K(uk, vk, at=base)
        ub = TangentPair(u.u1, u.u2, base=base)
        assert g._metric(U, V, -1, px)[i] == metric_G(ub, TangentPair(v.u1, v.u2, base=base))
        assert np.array_equal(g._j_tensor(U, px)[i], _as_array(j_tensor(ub)))


def test_identity_defects_follow_the_public_api():
    # the per-sample defects that hs curvature reports, against the
    # identities written out with the public per-pair functions
    rng = np.random.default_rng(29)
    us, vs = [_pair(rng=rng) for _ in range(3)], [_pair(rng=rng) for _ in range(3)]
    for kappa in (-1, 1):
        got = identity_defects(_stack(us), _stack(vs), kappa)
        assert set(got) == ({"constant_curvature"} if kappa == 1 else {
            "constant_curvature", "j_squared", "omega_compat", "anti_isometry", "nijenhuis"})
        for i, (u, v) in enumerate(zip(us, vs)):
            area = metric_G(u, u, kappa) * metric_G(v, v, kappa) - metric_G(u, v, kappa) ** 2
            want = abs(arnold_curvature(u, v, kappa) - area) / max(1.0, abs(area))
            assert got["constant_curvature"][i] == want
            if kappa == 1:
                continue
            uk = TangentPair(u.u1, mean_zero_project(u.u2))
            vk = TangentPair(v.u1, mean_zero_project(v.u2))
            ju, jv = j_tensor(uk), j_tensor(vk)
            jju = j_tensor(ju)

            def K(a, b):
                return metric_K(KTangent(a.u1, a.u2), KTangent(b.u1, b.u2))

            nij = nijenhuis(uk, vk)
            assert got["j_squared"][i] == max((jju.u1 - uk.u1).sup_norm(), (jju.u2 - uk.u2).sup_norm())
            assert got["omega_compat"][i] == abs(omega_form(uk, vk) - K(ju, vk))
            assert got["anti_isometry"][i] == abs(K(ju, jv) + K(uk, vk))
            assert got["nijenhuis"][i] == max(nij.u1.sup_norm(), nij.u2.sup_norm())
