r"""Seeded random streams with per-block substreams.

Monte-Carlo trials run in fixed-size blocks, and the master seed and the
block index jointly determine every draw of a block.  A campaign may be
sharded across any number of workers, block by block, and still produce
bit-identical results: worker layout never touches the stream derivation.
"""

from __future__ import annotations

import numpy as np


def trial_rng(seed: int, block: int, stream: int = 0) -> np.random.Generator:
    """Independent substream for one block of Monte-Carlo trials.

    Built from ``SeedSequence(seed, spawn_key=(block,))`` so the stream
    depends only on (seed, block), not on which worker runs the block.
    A nonzero ``stream`` derives a fresh substream for the same block,
    used to redraw the trials whose draw was degenerate.
    """
    key = (block,) if stream == 0 else (block, stream)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return np.random.Generator(np.random.PCG64(ss))


def complex_gaussian(rng: np.random.Generator, shape, var: float = 1.0) -> np.ndarray:
    r"""Circularly-symmetric complex Gaussian, per-entry variance ``var``.

    Entries are (x + 1j*y) * sqrt(var/2) with x, y standard normal, so
    E|entry|^2 = var.  All real parts are drawn before all imaginary parts,
    and each is scaled straight into its view of the one complex result,
    which is bit for bit the complex expression above.
    """
    out = np.empty(shape, dtype=complex)
    scale = np.sqrt(var / 2.0)
    np.multiply(rng.standard_normal(shape), scale, out=out.real)
    np.multiply(rng.standard_normal(shape), scale, out=out.imag)
    return out
