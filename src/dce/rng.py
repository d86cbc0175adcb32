r"""Seeded random streams with per-block substreams.

Monte-Carlo trials are drawn in fixed-size blocks, and the master seed and
the block index jointly determine every draw of a block.  A campaign may be
sharded across any number of workers, block by block, and still produce
bit-identical results: worker layout never touches the stream derivation.

A block is what is drawn; a stack, consecutive whole blocks side by side on
the trial axis, is what is computed.  ``BlockStreams`` holds a stack's
substreams, and the draws here take either one generator or a stack's
streams: for a stack they fill each block's slice of the trial axis (the
last axis of the array returned) from that block's own substream, with the
call and the shape that block alone would make.  So a block's draws, and
every outcome computed from them trial by trial, do not depend on the stack
it is computed in.

Each substream runs numpy's SFC64, the Small Fast Chaotic generator, which
passes PractRand and BigCrush and costs a few ns less per normal than PCG64,
and each complex array comes from one interleaved ``standard_normal`` call.
Changing either moves every stochastic output, so every Monte-Carlo golden
is re-pinned through ``tests/golden/repin.py --write``.
"""

from __future__ import annotations

from itertools import cycle
from typing import NamedTuple, Tuple

import numpy as np


def trial_rng(seed: int, block: int) -> np.random.Generator:
    """Independent substream for one block of Monte-Carlo trials.

    Built from ``SeedSequence(seed, spawn_key=(block,))`` so the stream
    depends only on (seed, block), not on which worker runs the block.
    A block draws from it once: no trial is ever redrawn.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.SFC64(ss))


class BlockStreams(NamedTuple):
    """The substreams of a stack's blocks, in block order, and each
    block's trial count; the stack's trial axis is their concatenation."""
    generators: Tuple[np.random.Generator, ...]
    trials: Tuple[int, ...]


def _by_block(rng: np.random.Generator | BlockStreams, sample, dims: tuple,
              axis: int) -> np.ndarray:
    """``sample(generator, dims)`` from one generator, or for a stack's
    streams each block's ``sample`` of its own length on ``axis`` of dims,
    laid side by side there."""
    if not isinstance(rng, BlockStreams):
        return sample(rng, dims)
    if dims[axis] != sum(rng.trials):
        raise ValueError(f"a draw of {dims[axis]} trials from a stack of "
                         f"{sum(rng.trials)}")
    if len(rng.generators) == 1:
        return sample(rng.generators[0], dims)
    parts = []
    for generator, n in zip(rng.generators, rng.trials):
        block_dims = list(dims)
        block_dims[axis] = n
        parts.append(sample(generator, tuple(block_dims)))
    return np.concatenate(parts, axis=axis)


def complex_gaussian(rng: np.random.Generator | BlockStreams, shape,
                     var: float = 1.0) -> np.ndarray:
    r"""Circularly-symmetric complex Gaussian, per-entry variance ``var``,
    from a generator or a stack's ``BlockStreams`` (trial axis last).

    Entries are (x + 1j*y) * sqrt(var/2) with x, y standard normal, so
    E|entry|^2 = var.  One ``standard_normal`` call draws the (x, y) pairs
    interleaved, and the scaled pairs are returned as the complex view of
    that array, which is bit for bit the complex expression above.
    """
    dims = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    pairs = _by_block(rng, lambda g, d: g.standard_normal(d), dims + (2,), -2)
    pairs *= np.sqrt(var / 2.0)
    return pairs.view(complex)[..., 0]


def integers(rng: np.random.Generator | BlockStreams, high: int,
             shape) -> np.ndarray:
    """Uniform integers in [0, high) of ``shape``, the trial axis last,
    from a generator or a stack's ``BlockStreams``: each block's are its
    substream's ``integers(0, high, size=...)``."""
    return _by_block(rng, lambda g, d: g.integers(0, high, size=d),
                     tuple(shape), -1)


def standard_gamma(rng: np.random.Generator | BlockStreams, shape,
                   dims) -> np.ndarray:
    """Gamma(shape, 1) variates of ``dims``, the trial axis last, ``shape``
    a scalar or one value per row, (dims[-2], 1), from a generator or a
    stack's ``BlockStreams``: each block's are, byte for byte, its
    substream's ``standard_gamma(shape, size=...)``.

    Each row, in C order over the leading axes, is one scalar-shape call
    with its own shape (a scalar shape is every row's), which is the order
    numpy draws in.  A row of 256 takes about 5.4 us as a scalar-shape call
    and 11.6 us through numpy's broadcast path (numpy 2.4, 2-core x86_64
    VM)."""
    dims = tuple(dims)
    if np.ndim(shape) != 0 and (len(dims) < 2
                                or np.shape(shape) != (dims[-2], 1)):
        raise ValueError(f"a gamma shape of {np.shape(shape)} for a draw of "
                         f"{dims}: give a scalar or one value per row")
    per_row = np.ravel(shape).tolist()

    def by_row(g, d):
        out = np.empty(d)
        for row, k in zip(out.reshape(-1, d[-1]), cycle(per_row)):
            row[...] = g.standard_gamma(k, size=d[-1])
        return out

    return _by_block(rng, by_row, dims, -1)
