"""The array-drawn seed stream and the state builder, bit for bit."""

import math

import numpy as np
import pytest

from qepi import seedstream
from qepi.symplectic import DomainError, random_gaussian_state


def _replay(row, k):
    ss = np.random.SeedSequence(tuple(int(x) for x in row))
    return np.random.default_rng(ss).random(k)


# 2**40 is two entropy words; so are the trial indices from 2**32 on
@pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 40])
def test_stream_matches_numpy_bit_for_bit(seed):
    idx = list(range(200)) + [2 ** 32 - 1, 2 ** 32, 2 ** 40 + 7]
    keys = np.array([[seed, i, k] for i in idx for k in (0, 1)], dtype=np.uint64)
    got = seedstream.uniforms(keys.reshape(-1, 2, 3), 5)
    assert got.shape == (len(idx), 2, 5)
    want = np.array([_replay(row, 5) for row in keys]).reshape(got.shape)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("width", [1, 2, 5, 9])
def test_stream_any_entropy_length(width):
    # pools shorter and longer than numpy's four words
    rng = np.random.default_rng(width)
    keys = rng.integers(0, 2 ** 63, size=(40, width), dtype=np.uint64)
    keys >>= rng.integers(0, 63, size=keys.shape, dtype=np.uint64)
    assert np.array_equal(seedstream.uniforms(keys, 3),
                          np.array([_replay(row, 3) for row in keys]))


def _product_chain(n, rng, nu_max, r_max):
    """The per-state generator: sequential uniform draws, 2n x 2n products."""
    def embed(j, block):
        m = np.eye(2 * n)
        m[2 * j:2 * j + 2, 2 * j:2 * j + 2] = block
        return m

    def rotation():
        phi = rng.uniform(0, 2 * math.pi)
        return np.array([[math.cos(phi), math.sin(phi)], [-math.sin(phi), math.cos(phi)]])

    nus = np.exp(rng.uniform(0.0, math.log(nu_max), size=n)) if nu_max > 1.0 \
        else np.ones(n)
    s_total = np.eye(2 * n)
    for j in range(n):
        s_total = s_total @ embed(j, rotation())
        r = rng.uniform(-r_max, r_max)
        s_total = s_total @ embed(j, np.diag([math.exp(r), math.exp(-r)]))
        s_total = s_total @ embed(j, rotation())
    for j in range(n - 1):
        theta = rng.uniform(0, 2 * math.pi)
        m = np.eye(2 * n)
        c, s = math.cos(theta), math.sin(theta)
        for q in range(2):
            m[2 * j + q, 2 * j + q] = m[2 * j + 2 + q, 2 * j + 2 + q] = c
            m[2 * j + q, 2 * j + 2 + q], m[2 * j + 2 + q, 2 * j + q] = s, -s
        s_total = s_total @ m
    gamma = s_total @ np.diag(np.repeat(nus, 2)) @ s_total.T
    return 0.5 * (gamma + gamma.T)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("nu_max, r_max", [(10.0, 1.0), (1.0, 1.0), (10.0, 0.0),
                                           (1e20, 3.0)])
def test_builder_matches_product_chain(n, nu_max, r_max):
    # the batched builder reproduces the per-state product chain exactly,
    # from a key array, a Generator and an int seed alike
    keys = np.array([[seed, i, k] for seed in (0, 1, 2) for i in range(20)
                     for k in (0, 1)])
    stack = random_gaussian_state(n, keys, nu_max=nu_max, r_max=r_max).gamma
    assert stack.shape == (len(keys), 2 * n, 2 * n)
    for row, gamma in zip(keys, stack):
        ss = np.random.SeedSequence(tuple(int(x) for x in row))
        want = _product_chain(n, np.random.default_rng(ss), nu_max, r_max)
        assert np.array_equal(gamma, want)
        one = random_gaussian_state(n, np.random.default_rng(ss), nu_max=nu_max,
                                    r_max=r_max)
        assert np.array_equal(one.gamma, want)
    for seed in range(5):
        assert np.array_equal(
            random_gaussian_state(n, seed, nu_max=nu_max, r_max=r_max).gamma,
            _product_chain(n, np.random.default_rng(seed), nu_max, r_max))


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("nu_max", [1.0, 4.0])
def test_generator_draw_count(n, nu_max):
    # nu_max = 1 draws no nu: 4n - 1 uniforms per state, else 5n - 1
    k = 5 * n - 1 if nu_max > 1.0 else 4 * n - 1
    rng = np.random.default_rng(3)
    random_gaussian_state(n, rng, nu_max=nu_max)
    assert rng.random() == np.random.default_rng(3).random(k + 1)[-1]


def test_seed_entropy_domain():
    for bad in (-1, [3, -2], 2 ** 64, 1.5, []):
        with pytest.raises(DomainError):
            random_gaussian_state(1, bad)
