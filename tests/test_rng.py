"""Seeded randomness: determinism, substreams, distribution sanity."""

import numpy as np
import pytest

from dce.rng import complex_gaussian, trial_rng


def test_same_seed_same_draws():
    a = complex_gaussian(np.random.default_rng(0), (8, 8))
    b = complex_gaussian(np.random.default_rng(0), (8, 8))
    np.testing.assert_array_equal(a, b)


def test_different_seeds_differ():
    a = complex_gaussian(np.random.default_rng(0), (4,))
    b = complex_gaussian(np.random.default_rng(1), (4,))
    assert not np.allclose(a, b)


def test_trial_substreams_are_independent_of_order():
    """Stream for (seed, trial) must not depend on what was drawn before."""
    direct = complex_gaussian(trial_rng(7, 3), (5,))
    # draw some unrelated streams first, then the same trial stream again
    complex_gaussian(trial_rng(7, 0), (100,))
    complex_gaussian(trial_rng(7, 1), (17,))
    again = complex_gaussian(trial_rng(7, 3), (5,))
    np.testing.assert_array_equal(direct, again)


def test_complex_gaussian_moments():
    """1e5 draws from seed 42 and from the engine's own block substreams:
    mean within 0.02 of 0, variance within 0.02 of 1."""
    for rng in (np.random.default_rng(42), trial_rng(42, 0), trial_rng(42, 7),
                trial_rng(42, 8), trial_rng(5, 3)):
        z = complex_gaussian(rng, (100000,))
        assert abs(z.mean()) < 0.02
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.02
        # circular symmetry: the pseudo-variance E[z^2] also vanishes
        assert abs(np.mean(z ** 2)) < 0.02


def test_complex_gaussian_scales_variance():
    z = complex_gaussian(np.random.default_rng(3), (200000,), var=2.5)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(2.5, rel=0.02)


def test_trial_streams_run_sfc64():
    assert isinstance(trial_rng(3, 0).bit_generator, np.random.SFC64)
    assert isinstance(trial_rng(3, 5).bit_generator, np.random.SFC64)


def test_trial_streams_are_uncorrelated():
    """Distinct (seed, block) keys, as a campaign's blocks use them side by
    side: over the n real and imaginary parts, every pair's sample
    correlation is below 4/sqrt(n)."""
    keys = [(9, 0), (9, 1), (9, 2), (9, 3), (9, 4), (10, 0)]
    x = np.stack([complex_gaussian(trial_rng(*k), 50000).view(np.float64)
                  for k in keys])
    corr = np.corrcoef(x)[~np.eye(len(keys), dtype=bool)]
    assert np.abs(corr).max() < 4 / np.sqrt(x.shape[1])


@pytest.mark.parametrize("var", [1e-9, 0.37, 1.0, 55.0])
@pytest.mark.parametrize("shape", [(800,), (3, 4, 5), 7, ()],
                         ids=["flat", "stack", "int", "scalar"])
def test_complex_gaussian_bit_identical_to_two_call_formula(var, shape):
    """One interleaved draw scaled in place and read as complex gives the
    bytes of (z[..., 0] + 1j*z[..., 1]) * sqrt(var/2) for z drawn with a
    trailing axis of 2, and leaves the stream where that one call leaves it."""
    rng, replay = np.random.default_rng(8), np.random.default_rng(8)
    got = complex_gaussian(rng, shape, var)
    z = replay.standard_normal(np.shape(np.empty(shape)) + (2,))
    want = (z[..., 0] + 1j * z[..., 1]) * np.sqrt(var / 2.0)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert rng.random() == replay.random()
