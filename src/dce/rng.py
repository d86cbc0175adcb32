r"""Seeded random streams with per-block substreams.

Monte-Carlo trials run in fixed-size blocks, and the master seed and the
block index jointly determine every draw of a block.  A campaign may be
sharded across any number of workers, block by block, and still produce
bit-identical results: worker layout never touches the stream derivation.

Each substream runs numpy's SFC64, the Small Fast Chaotic generator, which
passes PractRand and BigCrush and costs a few ns less per normal than PCG64,
and each complex array comes from one interleaved ``standard_normal`` call.
Changing either moves every stochastic output, so every Monte-Carlo golden
is re-pinned through ``tests/golden/repin.py --write``.
"""

from __future__ import annotations

import numpy as np


def trial_rng(seed: int, block: int) -> np.random.Generator:
    """Independent substream for one block of Monte-Carlo trials.

    Built from ``SeedSequence(seed, spawn_key=(block,))`` so the stream
    depends only on (seed, block), not on which worker runs the block.
    A block draws from it once: no trial is ever redrawn.
    """
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(block,))
    return np.random.Generator(np.random.SFC64(ss))


def complex_gaussian(rng: np.random.Generator, shape, var: float = 1.0) -> np.ndarray:
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
