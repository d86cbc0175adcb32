r"""The reciprocal scheme's channel estimation, simulated literally, as the
end-to-end reference for the Monte Carlo's NMSE.

``dce.montecarlo`` draws only what each receiver's squared error reads,
through shortcuts each argued exact in law: filter-domain noise in place of
slot noise, the span of the transmitter's estimate in place of the
estimate, each receiver's forward noise as one complex normal and one gamma
variate.  This module takes none of them.  Each trial runs the system as
it would be run, on stacks with the trial axis first:
- the LR sends sqrt(e_r/n_l) C_r, a semi-unitary tau_r x n_l pilot, over
  the uplink H_d^T, and the transmitter receives it in slot-domain noise;
- the transmitter forms its LMMSE estimate of H_d from C_r^H Y_t
  (``reference_estimators.tx_estimate_reciprocal``) and takes the AN basis
  N, the last n_t - n_l columns of Q, from the estimate's complete QR
  (``np.linalg.qr``); a transmitter that sent no reverse energy holds a
  zero estimate, and its N is then fixed, independent of the channels;
- it sends sqrt(e_f/n_t) C_f + A N^H over tau_f slots, C_f semi-unitary
  and A slot-domain AN, i.i.d. CN(0, var_a);
- each receiver applies its LMMSE gain, written out below from the model,
  to C_f^H Y of the block it received in its own slot-domain noise.

Only ``SystemParams`` and the allocation come from the library: no stream,
draw order or kernel is shared with ``dce.montecarlo``, so an engine whose
shortcut changes the law of a receiver's error disagrees with this one
(``test_montecarlo.py``).
"""

import numpy as np

from dce.params import PowerAllocation, SystemParams
from helpers import dft_pilot
from reference_estimators import tx_estimate_reciprocal

# trials simulated at once; a batch at 8 x 4, tau_f = 16 holds a few MB
BATCH = 2048


def _cn(rng: np.random.Generator, shape, var: float) -> np.ndarray:
    """i.i.d. CN(0, var) entries."""
    return np.sqrt(var / 2) * (rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape))


def _hermitian(x: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(x, -1, -2))


def _receiver_gains(p: SystemParams, alloc: PowerAllocation):
    """The LR's and the UR's LMMSE gains on C_f^H Y = s H + disturbance,
    s = sqrt(e_f/n_t): prior s / (prior s^2 + disturbance variance).  AN
    reaches the LR through the transmitter's estimation error only, whose
    per-entry variance is 1/(1/var_h + (e_r/n_l)/var_wt), and the UR in
    full."""
    s = np.sqrt(alloc.e_f / p.n_t)
    tx_err = 1.0 / (1.0 / p.var_h + (alloc.e_r / p.n_l) / p.var_wt)
    leak = (p.n_t - p.n_l) * alloc.var_a
    return tuple(prior * s / (prior * s * s + noise)
                 for prior, noise in ((p.var_h, leak * tx_err + p.var_w),
                                      (p.var_g, leak * p.var_g + p.var_v)))


def _batch(p: SystemParams, alloc: PowerAllocation, rng: np.random.Generator,
           n: int) -> np.ndarray:
    n_t, n_l, n_u = p.n_t, p.n_l, p.n_u
    h_d = _cn(rng, (n, n_t, n_l), p.var_h)
    g = _cn(rng, (n, n_t, n_u), p.var_g)

    # reverse training: tau_r slots from the LR's n_l antennas over H_d^T
    c_r = dft_pilot(p.tau_r, n_l)
    y_t = (np.sqrt(alloc.e_r / n_l) * (c_r @ np.swapaxes(h_d, -1, -2))
           + _cn(rng, (n, p.tau_r, n_t), p.var_wt))
    # the reference estimators take trial-last (n_l, n_t, T) statistics
    stat = np.moveaxis(_hermitian(c_r) @ y_t, 0, -1)
    estimate = np.moveaxis(tx_estimate_reciprocal(stat, p, alloc.e_r), -1, 0)
    q, _ = np.linalg.qr(estimate, mode="complete")
    null = q[:, :, n_l:]

    # forward training: tau_f slots from the transmitter's n_t antennas
    c_f = dft_pilot(p.tau_f, n_t)
    sent = np.sqrt(alloc.e_f / n_t) * c_f + _cn(
        rng, (n, p.tau_f, n_t - n_l), alloc.var_a) @ _hermitian(null)
    gain_l, gain_u = _receiver_gains(p, alloc)
    errors = []
    for h, gain, var in ((h_d, gain_l, p.var_w), (g, gain_u, p.var_v)):
        y = sent @ h + _cn(rng, (n, p.tau_f, h.shape[-1]), var)
        err = gain * (_hermitian(c_f) @ y) - h
        errors.append((np.abs(err) ** 2).mean(axis=(1, 2)))
    return np.stack(errors)


def simulate_reciprocal_nmse(p: SystemParams, alloc: PowerAllocation,
                             trials: int, seed: int) -> np.ndarray:
    """Each receiver's mean squared entry error per trial, (2, trials), the
    LR's first, from ``trials`` independent literal training rounds."""
    rng = np.random.default_rng(seed)
    return np.concatenate([_batch(p, alloc, rng, min(BATCH, trials - start))
                           for start in range(0, trials, BATCH)], axis=1)
