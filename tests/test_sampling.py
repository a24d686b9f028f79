"""The one-call draw against loops of one-sample reference samplers.

The reference samplers below draw one sample at a time, each normal in its
own generator call, in the way the stacked samplers must reproduce: same
samples bit for bit, and the generator left in the same state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from birkhoff_poisson import NumericalDomainError, sampling
from birkhoff_poisson.symspace import block_diag, ip_basis, parse_preset, su_basis, unitary_exp

SEEDS = st.integers(0, 2**32 - 1)
PRESETS = ["cp1", "cp2", "gr:2,2", "gr:2,3", "group:su2", "group:su3"]


def ref_complex_normal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def ref_special_linear(n, rng, singular=1e-6):
    while True:
        g = ref_complex_normal(rng, (n, n))
        det = np.linalg.det(g)
        if abs(det) > singular:
            return g / np.exp(np.log(det) / n)


def ref_special_unitary(n, rng):
    q, r = np.linalg.qr(ref_complex_normal(rng, (n, n)))
    d = np.diag(r)
    q = q * (d / np.abs(d))[np.newaxis, :]
    det = np.linalg.det(q)
    return q / np.exp(np.log(det) / n)


def ref_point(preset, rng):
    if not preset.is_inner:
        return block_diag(ref_special_unitary(preset.n, rng), ref_special_unitary(preset.n, rng))
    return ref_special_unitary(preset.matrix_dim, rng)


def ref_stabilizer(preset, rng):
    if not preset.is_inner:
        k = ref_special_unitary(preset.n, rng)
        return block_diag(k, k)
    m, n = preset.m, preset.n
    a = ref_complex_normal(rng, (m, m))
    b = ref_complex_normal(rng, (n, n))
    blk = np.zeros((m + n, m + n), dtype=complex)
    blk[:m, :m] = 0.5 * (a - a.conj().T)
    blk[m:, m:] = 0.5 * (b - b.conj().T)
    blk -= (np.trace(blk) / (m + n)) * np.eye(m + n)
    return unitary_exp(blk)


def ref_combination(basis, rng):
    coeffs = rng.standard_normal(len(basis))
    return sum(c * b for c, b in zip(coeffs, basis))


def ref_su2_sphere(rng):
    v = ref_complex_normal(rng, 2)
    v /= np.linalg.norm(v)
    return v


def _pairs(preset):
    """(stacked sampler, one-sample reference) for every normal-only sampler."""
    n = preset.n
    pairs = [
        (sampling.point_sampler(preset), lambda rng: ref_point(preset, rng)),
        (sampling.stabilizer_sampler(preset), lambda rng: ref_stabilizer(preset, rng)),
        (sampling.ip_sampler(preset), lambda rng: ref_combination(ip_basis(preset), rng)),
        (sampling.su_algebra_sampler(n + 1), lambda rng: ref_combination(su_basis(n + 1), rng)),
        (sampling.special_unitary_sampler(n + 1), lambda rng: ref_special_unitary(n + 1, rng)),
        (sampling.su2_sphere_sampler(), ref_su2_sphere),
        (sampling.complex_normal_sampler((preset.m, n)),
         lambda rng: ref_complex_normal(rng, (preset.m, n))),
        (sampling.complex_normal_sampler(n), lambda rng: ref_complex_normal(rng, n)),
    ]
    if preset.is_inner:
        pairs.append((
            sampling.chart_sampler(preset),
            lambda rng: 0.8 * ref_complex_normal(rng, (n, preset.m)),
        ))
    return pairs


@settings(max_examples=40, deadline=None)
@given(
    spec=st.sampled_from(PRESETS),
    count=st.integers(1, 6),
    picks=st.lists(st.integers(0, 8), min_size=1, max_size=5),
    seed=SEEDS,
)
def test_draw_matches_a_loop_of_one_sample_draws(spec, count, picks, seed):
    pairs = _pairs(parse_preset(spec))
    chosen = [pairs[i % len(pairs)] for i in picks]
    rng = np.random.default_rng(seed)
    stacks = sampling.draw(rng, count, *(sampler for sampler, _ in chosen))
    ref_rng = np.random.default_rng(seed)
    loop = [[] for _ in chosen]
    for _ in range(count):
        for samples, (_, ref) in zip(loop, chosen):
            samples.append(ref(ref_rng))
    for stack, samples in zip(stacks, loop):
        np.testing.assert_array_equal(stack, np.array(samples), strict=True)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@settings(max_examples=20, deadline=None)
@given(spec=st.sampled_from(PRESETS), seed=SEEDS)
def test_one_sample_functions_match_the_references(spec, seed):
    preset = parse_preset(spec)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    pairs = [
        (sampling.random_point(preset, rng), ref_point(preset, ref_rng)),
        (sampling.stabilizer_sampler(preset).one(rng), ref_stabilizer(preset, ref_rng)),
        (sampling.ip_sampler(preset).one(rng), ref_combination(ip_basis(preset), ref_rng)),
        (sampling.su_algebra_sampler(3).one(rng), ref_combination(su_basis(3), ref_rng)),
        (sampling.special_unitary_sampler(3).one(rng), ref_special_unitary(3, ref_rng)),
        (sampling.special_linear_stack(3, 1, rng)[0], ref_special_linear(3, ref_rng)),
        (sampling.su2_sphere_sampler().one(rng), ref_su2_sphere(ref_rng)),
        (sampling.complex_normal_sampler((2, 3)).one(rng), ref_complex_normal(ref_rng, (2, 3))),
        (sampling.complex_normal_sampler(()).one(rng), ref_complex_normal(ref_rng, ())),
    ]
    for got, expected in pairs:
        np.testing.assert_array_equal(got, expected)
        assert np.shape(got) == np.shape(expected)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("singular", [1e-6, 0.3])
@pytest.mark.parametrize("seed", [0, 7])
def test_special_linear_stack_skips_singular_blocks_in_stream_order(singular, seed, monkeypatch):
    # at 0.3 about a third of the 2 x 2 blocks are skipped, some in each call
    monkeypatch.setattr(sampling, "_SINGULAR_DET", singular)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    stack = sampling.special_linear_stack(2, 40, rng)
    loop = np.array([ref_special_linear(2, ref_rng, singular) for _ in range(40)])
    np.testing.assert_array_equal(stack, loop)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.all(np.abs(np.linalg.det(stack) - 1.0) < 1e-12)
    no_skip = np.random.default_rng(seed)
    no_skip.standard_normal((40, 8))
    assert (rng.bit_generator.state == no_skip.bit_generator.state) == (singular < 0.01)


def test_random_interior_point_refuses_a_preset_after_its_draws(monkeypatch):
    # no Haar draw on gr:6,10 keeps every leading minor of its Cartan image
    # 0.1 away from zero, so the draws run out and the preset is refused
    monkeypatch.setattr(sampling, "_INTERIOR_DRAWS", 200)
    draws = []
    point = sampling.random_point
    monkeypatch.setattr(sampling, "random_point", lambda *a: draws.append(1) or point(*a))
    with pytest.raises(NumericalDomainError, match=r"gr:6,10 with every leading minor at least 0\.1"):
        sampling.random_interior_point(parse_preset("gr:6,10"), np.random.default_rng(0))
    assert len(draws) == 200
