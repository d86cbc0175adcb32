"""Seeded randomness: determinism, substreams, distribution sanity."""

import numpy as np
import pytest

from dce import montecarlo
from dce.rng import complex_gaussian, standard_gamma, trial_rng


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


def _rows(draws, n):
    """Draws of shapes (..., n) as one (rows, n) float array: each draw's
    real parts, then its imaginary parts for a complex one."""
    return np.concatenate([part.reshape(-1, n) for x in draws
                           for part in ((x.real, x.imag) if np.iscomplexobj(x)
                                        else (x.astype(np.float64),))])


@pytest.mark.parametrize("sizes", [(7,), (256, 256), (256, 256, 37), (2, 2, 1)],
                         ids=["one", "two", "partial", "tiny"])
@pytest.mark.parametrize("lead", [(), (3,), (4, 6)], ids=["flat", "row", "stack"])
def test_stack_streams_fill_each_blocks_slice(lead, sizes, monkeypatch):
    """A run's blocks, side by side on its trial axis (the last), hold, bit
    for bit, on each block's slice what that block's own substream
    ``trial_rng(seed, block)`` gives for the block's length, call by call,
    complex normals, integers and gamma variates alike (a gamma shape
    broadcast against the draw), and ``montecarlo._run_blocks`` leaves
    every stream where the block's own calls leave it."""
    k = np.arange(1.0, 1.0 + lead[-1]).reshape((-1, 1)) if lead else 2.5
    streams = []

    def kept(*key):
        streams.append(trial_rng(*key))
        return streams[-1]

    def draws(rng, n):
        shape = lead + (n,)
        got = [complex_gaussian(rng, shape, 0.3), rng.integers(0, 64, size=shape),
               standard_gamma(rng, k, shape), complex_gaussian(rng, shape)]
        assert all(x.shape == shape and x.flags.c_contiguous for x in got)
        return _rows(got, n)

    monkeypatch.setattr(montecarlo, "trial_rng", kept)
    got = montecarlo._run_blocks(draws, sum(sizes), 4, sizes[0])
    alone, start = [trial_rng(4, b) for b in range(len(sizes))], 0
    assert len(streams) == len(alone)
    for rng, n in zip(alone, sizes):
        block = lead + (n,)
        z = rng.standard_normal(block + (2,))
        want = [(z[..., 0] + 1j * z[..., 1]) * np.sqrt(0.3 / 2.0),
                rng.integers(0, 64, size=block),
                rng.standard_gamma(k, size=block), complex_gaussian(rng, block)]
        assert got[:, start:start + n].tobytes() == _rows(want, n).tobytes()
        start += n
    assert [g.random() for g in streams] == [g.random() for g in alone]


@pytest.mark.parametrize("k", [[[3.0], [0.0]], [[1.0], [4.0], [2.5]]],
                         ids=["two-rows", "three-rows"])
def test_gamma_rows_equal_the_broadcast_call(k):
    """A shape per row, (rows, 1), is drawn row by row with scalar shapes,
    and gives, byte for byte, numpy's broadcast call, from numpy's default
    generator and from a block's substream, and leaves each stream where
    that call leaves it."""
    k = np.array(k)
    dims = (len(k), 300)
    for make in (np.random.default_rng, lambda seed: trial_rng(seed, 1)):
        got, want = make(6), make(6)
        assert (standard_gamma(got, k, dims).tobytes()
                == want.standard_gamma(k, size=dims).tobytes())
        assert got.random() == want.random()


@pytest.mark.parametrize("k,dims", [
    (np.ones((2, 2)), (2, 10)), (np.ones(2), (2, 10)), (np.ones((3, 1)), (2, 10)),
    (np.ones((1, 10)), (2, 10)), (np.ones((2, 1)), (10,)),
], ids=["per-entry", "flat", "too-many-rows", "per-trial", "no-rows"])
def test_gamma_shape_is_a_scalar_or_one_per_row(k, dims):
    with pytest.raises(ValueError, match="one value per row"):
        standard_gamma(np.random.default_rng(0), k, dims)
