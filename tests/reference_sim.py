r"""Both schemes' channel estimation, simulated literally, as the end-to-end
reference for the Monte Carlo's NMSE and SER.

``dce.montecarlo`` draws only what each receiver's squared error and
decoder read, through shortcuts each argued exact in law: filter-domain
noise in place of slot noise, the span of the transmitter's estimate in
place of the estimate, the reciprocal trial and the echo transmitter's span
in the frame of a reverse statistic, each receiver's forward noise as one
complex normal and one gamma variate.  This module takes none of them.
Each trial runs the system as it would be run, on stacks with the trial
axis first.

The reciprocal scheme:
- the LR sends sqrt(e_r/n_l) C_r, a semi-unitary tau_r x n_l pilot, over
  the uplink H_d^T, and the transmitter receives it in slot-domain noise;
- the transmitter forms its LMMSE estimate of H_d from C_r^H Y_t
  (``reference_estimators.tx_estimate_reciprocal``).

The echo (non-reciprocal) scheme, over an uplink H_u drawn independently
of H_d (``echo_reverse``, ``round_trip``):
- the LR sends sqrt(e_2/n_l) C_2, an n_l x n_l unitary pilot, over H_u,
  and the transmitter estimates H_u from C_2^H Y_t2
  (``reference_estimators.tx_estimate_uplink``);
- the transmitter probes with X_t0 = sqrt(e_0/n_t) Q, Q a Haar-random
  n_t x n_t unitary drawn per trial; the LR receives Y_L0 = X_t0 H_d + W_0
  and echoes alpha Y_L0 (``dce.nmse.echo_gain``) over H_u, and the
  transmitter receives Y_t1 = alpha Y_L0 H_u + W_1;
- it estimates H_d from X_t0^H Y_t1 = c Q^H Y_t1 and the uplink estimate
  (``reference_estimators.tx_estimate_downlink``, which applies the c
  itself).  A transmitter whose echo carries nothing (e_1 = 0) holds a
  zero estimate.
The probe could as well be the fixed c I: for a probe c Q,
Q^H Y_t1 = alpha c H_d H_u + alpha (Q^H W_0) H_u + Q^H W_1, and Q^H W has
the law of W, so every scaled unitary probe gives the joint law of
channels and estimate that c I gives (``test_estimators.py`` checks the
identity trial by trial).

Then, in both schemes:
- the transmitter takes the AN basis N, the last n_t - n_l columns of Q,
  from the estimate's complete QR (``np.linalg.qr``); a zero estimate's N
  is fixed, independent of the channels;
- it sends sqrt(E/n_t) C_f + A N^H over tau_f slots (n_t in the echo
  scheme), C_f semi-unitary and A slot-domain AN, i.i.d. CN(0, var_a);
- each receiver applies its LMMSE gain to C_f^H Y of the block it received
  in its own slot-domain noise.  The reciprocal gains are written out below
  from the model; the echo ones are ``dce.nmse.forward_filters``', since
  the echo LR's comes from the closed form's surrogate noise level, and
  they are the filters the engine scores;
- for SER, each receiver decodes one block of the orthogonal code with its
  estimate in the block domain (``reference_ostbc.block_domain_errors``).

Only ``SystemParams``, the allocation and scalars (the echo gain, the
estimators' and the echo receivers' LMMSE gains, the code's block scale)
come from the library: no stream, draw order or kernel is shared with
``dce.montecarlo``, so an engine whose shortcut changes the law of a
receiver's error or decoding disagrees with this one
(``test_montecarlo.py``).
"""

import numpy as np

from dce.nmse import echo_gain, forward_filters
from dce.ostbc import block_scale
from dce.params import NON_RECIPROCAL, RECIPROCAL, PowerAllocation, SystemParams
from helpers import dft_pilot
from reference_estimators import (tx_estimate_downlink, tx_estimate_reciprocal,
                                  tx_estimate_uplink)
from reference_ostbc import block_domain_errors

# trials simulated at once; a batch at 8 x 4, tau_f = 16 holds a few MB
BATCH = 2048


def cn(rng: np.random.Generator, shape, var: float) -> np.ndarray:
    """i.i.d. CN(0, var) entries."""
    return np.sqrt(var / 2) * (rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape))


def _hermitian(x: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(x, -1, -2))


def haar_unitaries(rng: np.random.Generator, trials: int, n: int) -> np.ndarray:
    """Haar-random n x n unitaries (trials, n, n): the QR of a
    complex-Gaussian stack with R's diagonal phases moved into Q (Mezzadri,
    Notices AMS 2007)."""
    q, r = np.linalg.qr(cn(rng, (trials, n, n), 1.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


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


def echo_reverse(p: SystemParams, alloc: PowerAllocation, h_u: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """The echo scheme's reverse phase: C_2^H Y_t2 (trials, n_l, n_t) for
    the block Y_t2 = sqrt(e_2/n_l) C_2 H_u + W the transmitter receives over
    n_l slots in slot-domain noise, C_2 the n_l-point DFT."""
    c_2 = dft_pilot(p.n_l, p.n_l)
    y_t2 = (np.sqrt(alloc.e_2 / p.n_l) * (c_2 @ h_u)
            + cn(rng, h_u.shape, p.var_wt))
    return _hermitian(c_2) @ y_t2


def round_trip(p: SystemParams, alloc: PowerAllocation, h_d: np.ndarray,
               h_u: np.ndarray, probe: np.ndarray,
               rng: np.random.Generator) -> np.ndarray:
    """The round trip (echo scheme only): the (trials, n_t, n_t) block
    Y_t1 = alpha (X_t0 H_d + W_0) H_u + W_1 the transmitter receives for
    the probe X_t0 = sqrt(e_0/n_t) ``probe``, ``probe`` a unitary
    (trials, n_t, n_t) stack or one matrix, W_0 drawn before W_1."""
    if alloc.scheme != NON_RECIPROCAL:
        raise ValueError("round-trip training exists only in the echo scheme")
    n = h_d.shape[0]
    y_l0 = (np.sqrt(alloc.e_0 / p.n_t) * (probe @ h_d)
            + cn(rng, (n, p.n_t, p.n_l), p.var_w))
    return (echo_gain(p, alloc.e_0, alloc.e_1) * (y_l0 @ h_u)
            + cn(rng, (n, p.n_t, p.n_t), p.var_wt))


def _echo_estimate(p: SystemParams, alloc: PowerAllocation,
                   rng: np.random.Generator, h_d: np.ndarray) -> np.ndarray:
    """The echo transmitter's LMMSE estimate of H_d (trials, n_t, n_l)."""
    n = h_d.shape[0]
    h_u = cn(rng, (n, p.n_l, p.n_t), p.var_hu)
    hu_hat = tx_estimate_uplink(np.moveaxis(echo_reverse(p, alloc, h_u, rng), 0, -1),
                                p, alloc.e_2)
    q = haar_unitaries(rng, n, p.n_t)
    y_t1 = round_trip(p, alloc, h_d, h_u, q, rng)
    if alloc.e_1 == 0:
        return np.zeros_like(h_d)
    # the reference estimators take trial-last stacks
    estimate = tx_estimate_downlink(np.moveaxis(_hermitian(q) @ y_t1, 0, -1),
                                    hu_hat, p, alloc)
    return np.moveaxis(estimate, -1, 0)


def _batch(p: SystemParams, alloc: PowerAllocation, rng: np.random.Generator,
           n: int, modulations) -> np.ndarray:
    """Each receiver's mean squared entry error per trial, then per
    modulation its symbol errors per trial, (2 + 2 len(modulations), n)."""
    n_t, n_l, n_u = p.n_t, p.n_l, p.n_u
    var_d = p.var_h if alloc.scheme == RECIPROCAL else p.var_hd
    h_d = cn(rng, (n, n_t, n_l), var_d)
    g = cn(rng, (n, n_t, n_u), p.var_g)

    if alloc.scheme == RECIPROCAL:
        # reverse training: tau_r slots from the LR's n_l antennas over H_d^T
        c_r = dft_pilot(p.tau_r, n_l)
        y_t = (np.sqrt(alloc.e_r / n_l) * (c_r @ np.swapaxes(h_d, -1, -2))
               + cn(rng, (n, p.tau_r, n_t), p.var_wt))
        # the reference estimators take trial-last (n_l, n_t, T) statistics
        stat = np.moveaxis(_hermitian(c_r) @ y_t, 0, -1)
        estimate = np.moveaxis(tx_estimate_reciprocal(stat, p, alloc.e_r), -1, 0)
        gains, tau_f = _receiver_gains(p, alloc), p.tau_f
    else:
        estimate = _echo_estimate(p, alloc, rng, h_d)
        (gain_l, _), (gain_u, _) = forward_filters(p, alloc)
        gains, tau_f = (gain_l, gain_u), n_t
    q, _ = np.linalg.qr(estimate, mode="complete")
    null = q[:, :, n_l:]

    # forward training: tau_f slots from the transmitter's n_t antennas
    c_f = dft_pilot(tau_f, n_t)
    sent = np.sqrt(alloc.forward / n_t) * c_f + cn(
        rng, (n, tau_f, n_t - n_l), alloc.var_a) @ _hermitian(null)
    errors, estimates = [], []
    for h, gain, var in ((h_d, gains[0], p.var_w), (g, gains[1], p.var_v)):
        y = sent @ h + cn(rng, (n, tau_f, h.shape[-1]), var)
        estimates.append(gain * (_hermitian(c_f) @ y))
        errors.append((np.abs(estimates[-1] - h) ** 2).mean(axis=(1, 2)))
    for modulation in modulations:
        errors.extend(block_domain_errors(rng, p, modulation, block_scale(p.p_ave),
                                          h_d, g, *estimates).T)
    return np.stack(errors)


def simulate(p: SystemParams, alloc: PowerAllocation, trials: int, seed: int,
             modulations=()) -> np.ndarray:
    """From ``trials`` independent literal training rounds: each receiver's
    mean squared entry error per trial, the LR's first, and for each of
    ``modulations`` (which needs n_t = 4) each receiver's symbol errors per
    trial in one block of the code; (2 + 2 len(modulations), trials)."""
    rng = np.random.default_rng(seed)
    return np.concatenate([_batch(p, alloc, rng, min(BATCH, trials - start),
                                  modulations)
                           for start in range(0, trials, BATCH)], axis=1)
