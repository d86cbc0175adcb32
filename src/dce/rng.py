r"""Seeded random streams with per-block substreams.

Monte-Carlo trials are drawn and computed in blocks, and the master seed
and the block index jointly determine every draw of a block: block b of a
run draws from ``trial_rng(seed, b)`` alone.  A campaign may be sharded
across any number of workers, block by block, and still produce
bit-identical results: worker layout never touches the stream derivation.

Each substream runs numpy's SFC64, the Small Fast Chaotic generator, which
passes PractRand and BigCrush and costs a few ns less per normal than PCG64,
and each complex array comes from one interleaved ``standard_normal`` call.
Changing either moves every stochastic output, so every Monte-Carlo golden
is re-pinned through ``tests/golden/repin.py --write``.
"""

from __future__ import annotations

from itertools import cycle

import numpy as np


def trial_rng(seed: int, block: int) -> np.random.Generator:
    """Independent substream for one block of Monte-Carlo trials.

    Built from ``SeedSequence(seed, spawn_key=(block,))`` so the stream
    depends only on (seed, block), not on which worker runs the block.
    A block draws from it once: no trial is ever redrawn.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.SFC64(ss))


def complex_gaussian(rng: np.random.Generator, shape,
                     var: float = 1.0) -> np.ndarray:
    r"""Circularly-symmetric complex Gaussian, per-entry variance ``var``.

    Entries are (x + 1j*y) * sqrt(var/2) with x, y standard normal, so
    E|entry|^2 = var.  One ``standard_normal`` call draws the (x, y) pairs
    interleaved, and the scaled pairs are returned as the complex view of
    that array, which is bit for bit the complex expression above.
    """
    dims = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
    pairs = rng.standard_normal(dims + (2,))
    pairs *= np.sqrt(var / 2.0)
    return pairs.view(complex)[..., 0]


def standard_gamma(rng: np.random.Generator, shape, dims) -> np.ndarray:
    """Gamma(shape, 1) variates of ``dims``, ``shape`` a scalar or one value
    per row, (dims[-2], 1): byte for byte ``rng.standard_gamma(shape,
    size=dims)``.

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
    out = np.empty(dims)
    for row, k in zip(out.reshape(-1, dims[-1]), cycle(np.ravel(shape).tolist())):
        row[...] = rng.standard_gamma(k, size=dims[-1])
    return out
