import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff_poisson import (
    InvalidTangent,
    birkhoff_layer,
    canonical_rep,
    hamiltonian_residual,
    leaf_factorize,
    moment_eval,
    torus_tw,
    torus_vector_field,
)
from birkhoff_poisson.momentum import _check_torus_direction, leaf_moment
from birkhoff_poisson.poisson import omega_apply
from birkhoff_poisson.sampling import (
    ip_sampler,
    random_interior_point,
    random_point,
    special_unitary_sampler,
    su2_sphere_sampler,
)
from birkhoff_poisson.symspace import block_diag, ip_basis, parse_preset, unitary_exp

X_DIR = np.diag([1j, -1j])


def cp1_point(z, cp1):
    return canonical_rep(np.array([[complex(z)]]), cp1)


def closed_form(z):
    return np.log((1 + abs(z) ** 2) / (1 - abs(z) ** 2))


def test_moment_zero_at_fixed_point(cp1):
    assert moment_eval(np.eye(2, dtype=complex), X_DIR, cp1) == pytest.approx(0.0, abs=1e-14)


def test_moment_cp1_closed_form(rng, cp1):
    for _ in range(25):
        z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        mu = moment_eval(cp1_point(z, cp1), X_DIR, cp1)
        assert mu == pytest.approx(closed_form(z), abs=1e-10)


def test_moment_monotone_in_radius(cp1):
    radii = np.linspace(0.0, 0.95, 12)
    values = [moment_eval(cp1_point(r, cp1), X_DIR, cp1) for r in radii]
    assert values[0] == pytest.approx(0.0, abs=1e-12)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_moment_linearity(rng, cp2):
    u = random_point(cp2, rng)
    basis = torus_tw(birkhoff_layer(u, cp2), cp2)
    x1, x2 = basis[0], basis[1]
    a, b = 0.7, -1.3
    lhs = moment_eval(u, a * x1 + b * x2, cp2)
    rhs = a * moment_eval(u, x1, cp2) + b * moment_eval(u, x2, cp2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_moment_well_defined_on_cosets(rng, cp2):
    from birkhoff_poisson.sampling import stabilizer_sampler

    u = random_point(cp2, rng)
    basis = torus_tw(birkhoff_layer(u, cp2), cp2)
    k = stabilizer_sampler(cp2).one(rng)
    for x in basis:
        assert moment_eval(u @ k, x, cp2) == pytest.approx(
            moment_eval(u, x, cp2), abs=1e-10
        )


def test_moment_rejects_non_torus_direction(rng, cp1):
    u = cp1_point(0.4, cp1)
    with pytest.raises(InvalidTangent):
        moment_eval(u, np.array([[0, 1], [-1, 0]], dtype=complex), cp1)


def test_torus_field_zero_cases(cp1):
    field = torus_vector_field(np.eye(2, dtype=complex), 0 * X_DIR, cp1)
    assert np.linalg.norm(field) == 0
    # at the fixed point the whole field vanishes
    field = torus_vector_field(np.eye(2, dtype=complex), X_DIR, cp1)
    assert np.linalg.norm(field) <= 1e-14


def test_torus_field_generates_rotation(cp1):
    # chart pushforward of the field is tangent to circles of constant radius
    z = 0.5 + 0.2j
    u = cp1_point(z, cp1)
    field = torus_vector_field(u, X_DIR, cp1)
    h = 1e-6
    w = u @ unitary_exp(h * field)
    moved = (w[1:, :1] @ np.linalg.inv(w[:1, :1]))[0, 0]
    dz = (moved - z) / h
    # action curve: exp(-t X) u, also pushed to the chart
    w = unitary_exp(-h * X_DIR) @ u
    direct = (w[1:, :1] @ np.linalg.inv(w[:1, :1]))[0, 0]
    dz_action = (direct - z) / h
    assert dz == pytest.approx(dz_action, abs=1e-5)
    # tangent to |z| = const: the radial derivative vanishes
    assert abs(np.real(np.conj(z) * dz)) <= 1e-6
    np.testing.assert_allclose(abs(moved), abs(z), atol=1e-9)


def test_moment_invariant_along_its_own_flow(cp1):
    z = 0.35 - 0.55j
    u = cp1_point(z, cp1)
    field = torus_vector_field(u, X_DIR, cp1)
    h = 1e-5
    plus = moment_eval(u @ unitary_exp(h * field), X_DIR, cp1)
    minus = moment_eval(u @ unitary_exp(-h * field), X_DIR, cp1)
    assert abs(plus - minus) / (2 * h) <= 1e-6


def test_hamiltonian_residual_cp1(rng, cp1):
    for _ in range(10):
        z = 0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        assert hamiltonian_residual(cp1_point(z, cp1), X_DIR, cp1) <= 1e-5


@pytest.mark.parametrize("preset_name", ["cp2", "gr22"])
def test_hamiltonian_residual_larger_presets(preset_name, rng, request):
    preset = request.getfixturevalue(preset_name)
    for _ in range(5):
        u = random_interior_point(preset, rng)
        for x in torus_tw(birkhoff_layer(u, preset), preset):
            assert hamiltonian_residual(u, x, preset) <= 1e-4


def per_point_hamiltonian_residual(u, x, preset, fd_step=1e-5):
    """The stencil one perturbed point at a time, through moment_eval."""
    basis = ip_basis(preset)
    coeffs = np.zeros(len(basis))
    for r, e_r in enumerate(basis):
        forward = moment_eval(u @ unitary_exp(fd_step * e_r), x, preset)
        backward = moment_eval(u @ unitary_exp(-fd_step * e_r), x, preset)
        coeffs[r] = -(forward - backward) / (2.0 * fd_step)
    dmu = sum(c * e for c, e in zip(coeffs, basis))
    sharp = omega_apply(u, dmu, preset)
    return float(np.linalg.norm(sharp - torus_vector_field(u, x, preset)))


@pytest.mark.parametrize("preset_name", ["cp1", "cp2", "gr22"])
def test_stacked_stencil_matches_per_point_loop(preset_name, rng, request):
    preset = request.getfixturevalue(preset_name)
    for _ in range(3):
        u = random_interior_point(preset, rng)
        for x in torus_tw(birkhoff_layer(u, preset), preset):
            stacked = hamiltonian_residual(u, x, preset)
            assert abs(stacked - per_point_hamiltonian_residual(u, x, preset)) <= 1e-12


@settings(max_examples=10, deadline=None)
@given(
    spec=st.sampled_from(["cp1", "cp2", "gr:2,2"]),
    count=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_residual_matches_per_point_per_direction_calls(spec, count, seed):
    # one call for a stack of points and the whole torus basis of their layer
    preset = parse_preset(spec)
    rng = np.random.default_rng(seed)
    u = np.array([random_interior_point(preset, rng) for _ in range(count)])
    layer = leaf_factorize(u[0], preset)
    lf = leaf_factorize(u, preset)
    same = np.all((lf.perm == layer.perm) & (lf.signs == layer.signs), axis=-1)
    u = u[same]
    basis = np.stack(torus_tw((layer.perm, layer.signs), preset))
    stacked = hamiltonian_residual(u, basis, preset)
    assert stacked.shape == (len(u), len(basis))
    for i, t in np.ndindex(stacked.shape):
        single = per_point_hamiltonian_residual(u[i], basis[t], preset)
        assert abs(stacked[i, t] - single) <= 1e-12
    # one point against the basis, and a stack of points against one direction
    assert hamiltonian_residual(u[0], basis, preset).shape == (len(basis),)
    assert hamiltonian_residual(u, basis[0], preset).shape == (len(u),)
    assert isinstance(hamiltonian_residual(u[0], basis[0], preset), float)


def test_stacked_residual_rejects_a_basis_with_one_bad_direction(rng, cp2):
    u = np.array([random_interior_point(cp2, rng) for _ in range(2)])
    basis = np.stack(torus_tw(birkhoff_layer(u[0], cp2), cp2))
    bad = np.concatenate([basis, [np.diag([1j, 0, -1j]) + 0.1 * np.eye(3)]])
    with pytest.raises(InvalidTangent):
        hamiltonian_residual(u, bad, cp2)


@pytest.mark.parametrize("preset_name", ["cp1", "cp2", "gr22"])
def test_moment_eval_on_a_stack_of_points(preset_name, rng, request):
    preset = request.getfixturevalue(preset_name)
    u0 = random_interior_point(preset, rng)
    x = torus_tw(birkhoff_layer(u0, preset), preset)[0]
    steps = unitary_exp(1e-3 * np.array([ip_sampler(preset).one(rng) for _ in range(6)]))
    points = (u0 @ steps).reshape(2, 3, *u0.shape)
    values = moment_eval(points, x, preset)
    assert values.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        assert values[idx] == moment_eval(points[idx], x, preset)
    lf = leaf_factorize(points, preset)
    assert lf.perm.shape == (2, 3, preset.matrix_dim)
    one = leaf_factorize(points[1, 2], preset)
    np.testing.assert_array_equal(
        np.log(np.abs(np.diagonal(lf.h[1, 2]))), np.log(np.abs(np.diagonal(one.h)))
    )


def test_moment_eval_stack_rejects_non_torus_direction(rng, cp1):
    points = np.array([cp1_point(0.4, cp1), cp1_point(-0.2j, cp1)])
    with pytest.raises(InvalidTangent):
        moment_eval(points, np.array([[0, 1], [-1, 0]], dtype=complex), cp1)


def test_leaf_moment_on_basis_matches_per_direction_calls(rng, cp2):
    # one leaf factorization read on the whole torus basis, as `moment` does
    u = random_interior_point(cp2, rng)
    lf = leaf_factorize(u, cp2)
    basis = torus_tw((lf.perm, lf.signs), cp2)
    np.testing.assert_array_equal(
        [leaf_moment(lf, x, cp2) for x in basis], [moment_eval(u, x, cp2) for x in basis]
    )


def test_unitary_exp_on_a_stack(rng, gr22):
    xs = np.array([ip_sampler(gr22).one(rng) for _ in range(4)])
    stacked = unitary_exp(xs)
    for x, e in zip(xs, stacked):
        np.testing.assert_array_equal(e, unitary_exp(x))


def test_torus_check_on_lower_layers(rng, gr22):
    # leaf_factorize does not yet factor lower-layer points, so the check is
    # called with the layer permutation directly
    on_cycles = np.diag([1j, 1j, -1j, -1j])
    _check_torus_direction(on_cycles, (1, 0, 3, 2), gr22)
    _check_torus_direction(on_cycles, np.array([(0, 1, 2, 3), (1, 0, 3, 2)]), gr22)
    off_cycles = on_cycles + np.diag([1e-6j, -1e-6j, 0, 0])
    with pytest.raises(InvalidTangent, match="cycles"):
        _check_torus_direction(off_cycles, (1, 0, 3, 2), gr22)
    # one stacked permutation the direction is not constant on is enough
    with pytest.raises(InvalidTangent, match="cycles"):
        _check_torus_direction(on_cycles, np.array([(1, 0, 3, 2), (1, 2, 3, 0)]), gr22)
    # a 4-cycle leaves only the zero direction
    _check_torus_direction(np.zeros((4, 4)), (1, 2, 3, 0), gr22)
    for _ in range(10):
        d = rng.standard_normal(4)
        with pytest.raises(InvalidTangent, match="cycles"):
            _check_torus_direction(np.diag(1j * (d - d.mean())), (1, 2, 3, 0), gr22)


def test_su2_moment_closed_form(rng, group2):
    # at u = diag(k g, g) the Cartan image is diag(k, k*), whose diagonal
    # factors are (a, 1/a) and (conj a, 1/conj a) for k = [[a, b], [-conj b,
    # conj a]], so the momentum of i diag(1, -1, 1, -1) is -2 log|a|
    x = 1j * np.diag([1.0, -1.0, 1.0, -1.0])
    sphere, su2 = su2_sphere_sampler(), special_unitary_sampler(2)
    count = 0
    while count < 20:
        a, b = sphere.one(rng)
        if abs(a) < 0.2:
            continue
        count += 1
        k = np.array([[a, b], [-np.conj(b), np.conj(a)]])
        g = su2.one(rng)
        u = block_diag(k @ g, g)
        assert moment_eval(u, x, group2) == pytest.approx(-2.0 * np.log(abs(a)), abs=1e-12)


@pytest.mark.parametrize("spec", ["group:su2", "group:su3"])
def test_hamiltonian_residual_group_case(spec, rng):
    preset = parse_preset(spec)
    for _ in range(10):
        u = random_interior_point(preset, rng)
        for x in torus_tw(birkhoff_layer(u, preset), preset):
            assert hamiltonian_residual(u, x, preset) <= 1e-6


def test_group_torus_is_the_fixed_space_of_ad_w_theta(rng, group2):
    # theta swaps the blocks, so on the top layer the torus is diag(t, t);
    # diag(t, -t) is constant on the cycles of W but not fixed by Ad(W) o theta
    u = random_interior_point(group2, rng)
    (x,) = torus_tw(birkhoff_layer(u, group2), group2)
    np.testing.assert_array_equal(x, 1j * np.diag([1.0, -1.0, 1.0, -1.0]))
    wrong = 1j * np.diag([1.0, -1.0, -1.0, 1.0])
    with pytest.raises(InvalidTangent, match="cycles"):
        moment_eval(u, wrong, group2)
    with pytest.raises(InvalidTangent, match="cycles"):
        hamiltonian_residual(u, wrong, group2)
