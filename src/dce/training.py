r"""Channel sampling and the training-phase statistics.

Every function works on (rows, cols, T) stacks, one matrix per trial of a
Monte-Carlo block, the trial axis last and never moved, and draws from
that block's one generator: the downlinks [H_d, G] are one
(n_t, n_l + n_u, T) array, and a product of two stacks is formed on those
axes (``_product``).  Each pilot phase returns what its receiver's filter
reads, not the tau-slot block it receives.  A pilot phase sends
X = sqrt(E/n) C for a tau x n pilot with C^H C = I_n, and a receiver's
LMMSE filter reads its block Y = X Z + A N^H Z' + W only through
C^H Y = sqrt(E/n) Z + (C^H A) N^H Z' + C^H W.  C^H has orthonormal rows, so
C^H W and C^H A are white with the variances of W and A (Biguesh &
Gershman, IEEE TSP 2006).  The phases draw them as such, so the pilot
length enters only the energy budgets and the AN energy, as in the closed
forms.  The echo scheme's reverse phase and round trip are drawn in the
frame of its reverse statistic (``montecarlo._estimate_span``).

The forward phase never builds the AN basis: ``null_space_basis`` computes
the Householder reflectors of each estimate's QR factorization itself, on
the whole stack with no per-matrix LAPACK call, and applies them straight
to the receivers' channels.  n_t > n_l, so every estimate has a left null
space, and the basis nulls it whatever its rank: nothing is rank-tested.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .params import NON_RECIPROCAL, RECIPROCAL, PowerAllocation, SystemParams
from .rng import complex_gaussian


def sample_channels(params: SystemParams, mode: str, rng: np.random.Generator,
                    trials: int) -> np.ndarray:
    """Draw ``trials`` i.i.d. complex-Gaussian downlinks [H_d, G] to the LR
    and the UR side by side, (n_t, n_l + n_u, T) from one draw, H_d of
    variance var_h (reciprocal) or var_hd (non-reciprocal)."""
    if mode not in (RECIPROCAL, NON_RECIPROCAL):
        raise ValueError(f"unknown mode {mode!r}")
    n_l = params.n_l
    var_d = params.var_h if mode == RECIPROCAL else params.var_hd
    channels = complex_gaussian(rng, (params.n_t, n_l + params.n_u, trials))
    channels[:, :n_l] *= np.sqrt(var_d)
    channels[:, n_l:] *= np.sqrt(params.var_g)
    return channels


def _product(a: np.ndarray, b: np.ndarray,
             out: Optional[np.ndarray] = None) -> np.ndarray:
    """a b for trial-last stacks a (n, k, T) and b (k, m, T), added to
    ``out`` (n, m, T) when given.  Up to four inner terms, each row of the
    result takes k broadcast multiply-adds, an entry of a (T) times a row of
    b (m, T), in cache.  Beyond four, numpy's matmul on the trial-last axes
    costs less; it returns each trial's product trial-major."""
    if len(b) > 4:
        product = np.matmul(a, b, axes=[(0, 1), (0, 1), (0, 1)])
        return product if out is None else np.add(out, product, out=out)
    if out is None:
        out = np.zeros((len(a), b.shape[1], a.shape[2]), dtype=complex)
    term = np.empty_like(out[0])
    for a_i, out_i in zip(a, out):
        for a_ik, b_k in zip(a_i, b):
            np.multiply(a_ik, b_k, out=term)
            out_i += term
    return out


def _householder(a: np.ndarray, n_l: int) -> None:
    """Reduce the first n_l columns of ``a`` (n_t, n_l + M, T), a stack of
    T matrices with the trial axis last, to R in place, applying each
    reflector H_k^H to every column to its right as soon as it is formed.

    Afterwards ``a[:n_l, :n_l]`` holds R (its diagonal the real beta_k),
    column k below the diagonal the tail of v_k (whose head is 1), and
    ``a[:, n_l:]`` the last M columns times Q^H.  Every step works on whole
    rows of the stack: a temporary the size of all of ``a`` would leave the
    cache at large n_t.
    """
    for k in range(n_l):
        col = a[k:, k]
        alpha, x = col[0], col[1:]
        # zlarfg: H_k^H [alpha; x] = [beta; 0] with beta = -sign(Re alpha)
        # ||[alpha; x]||, tau_k = (beta - alpha)/beta, v_k = [1; x/(alpha -
        # beta)]; a column already of that form (zero tail, real alpha,
        # a zero column too) keeps H_k = I, tau_k = 0 and beta = alpha
        keep = ~x.any(axis=0) & (alpha.imag == 0)
        norm = np.sqrt(np.sum(np.abs(col) ** 2, axis=0))
        beta = np.where(keep, alpha.real, np.copysign(norm, -alpha.real))
        conj_tau = (beta - alpha.conj()) / np.where(keep, 1.0, beta)  # beta is real
        x /= alpha - beta + keep  # x is zero where keep
        a[k, k] = beta
        # H_k^H rest = rest - conj(tau_k) v_k w with w = v_k^H rest
        rest, x_conj = a[k:, k + 1:], x.conj()
        w = rest[0].copy()
        for row, v_i in zip(rest[1:], x_conj):
            w += v_i * row
        w *= conj_tau
        rest[0] -= w
        for row, v_i in zip(rest[1:], x):
            row -= v_i * w


def null_space_basis(h_hat: np.ndarray, m: np.ndarray) -> np.ndarray:
    """N^H m (n_t-n_l, M, ...): the stack ``m`` (n_t, M, ...) seen through
    orthonormal bases N (n_t, n_t-n_l, ...) of the left null spaces of a
    stack of estimates (n_t, n_l, ...), the trial axes last.  ``m`` may be
    one (n_t, M) matrix for the whole stack; the identity gives N^H itself.

    N^H h_hat = 0 and N^H N = I to rounding for every trial, whatever its
    rank.  n_t > n_l, so the left null space has at least n_t-n_l
    dimensions, and a rank loss only enlarges it: then N is one
    orthonormal (n_t-n_l)-frame inside it, chosen by rounding.  A zero
    estimate's null space is all of C^n_t, and every reflector is the
    identity, so N^H m is m's last n_t-n_l rows.

    N is the trailing n_t-n_l columns of Q in the complete QR h_hat = Q R,
    with Q = H_1 ... H_{n_l} the product of n_l Householder reflectors
    H_k = I - tau_k v_k v_k^H.  ``_householder`` computes them column by
    column on [h_hat, m], in the convention of LAPACK's zlarfg (the routine
    geqrf calls per column), and applies each H_k^H to the columns to its
    right.  Q is never formed: N^H m is the trailing n_t-n_l rows of Q^H m.
    ungqr would build Q from the same reflectors, so this is its N up to
    rounding.  zlarfg's one branch, tau_k = 0 where v_k's tail and Im alpha
    vanish, cannot move N either: a zero-tail reflector touches only
    coordinate k < n_l, a row of the range of h_hat, and the later
    reflectors leave that row of [0; I_{n_t-n_l}] zero, so N is the same
    whatever tau_k it takes.  Unlike LAPACK's norms, the column norms
    square entries unscaled, so entries beyond about 1e150 in magnitude
    overflow (with a numpy RuntimeWarning) and give non-finite trials,
    which the Monte Carlo rejects (``montecarlo._run_blocks``); the
    estimates here are of the order of the channels.
    """
    n_t, n_l = h_hat.shape[:2]
    stack, cols = h_hat.reshape((n_t, n_l, -1)), m.shape[1]
    a = np.empty((n_t, n_l + cols, stack.shape[2]), dtype=complex)
    a[:, :n_l] = stack
    a[:, n_l:] = m.reshape((n_t, cols, -1))
    _householder(a, n_l)
    return a[n_l:, n_l:].reshape((n_t - n_l, cols) + h_hat.shape[2:])


def reverse_training(params: SystemParams, alloc: PowerAllocation,
                     h_d: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    r"""LR-to-transmitter pilot phase of the reciprocal scheme over the
    uplink H_d^T, for the downlink ``h_d`` (n_t, n_l, T); returns the
    transmitter's statistic ``y_t`` = sqrt(e_r/n_l) H_d^T + CN(0, var_wt),
    (n_l, n_t, T).
    """
    if alloc.scheme != RECIPROCAL:
        raise ValueError("the echo scheme's reverse phase is drawn in the "
                         "frame of its statistic (montecarlo._estimate_span)")
    h_t = h_d.swapaxes(0, 1)
    noise = complex_gaussian(rng, h_t.shape, params.var_wt)
    return np.sqrt(alloc.e_r / params.n_l) * h_t + noise


def _forward_signal(params: SystemParams, alloc: PowerAllocation,
                    span: Optional[np.ndarray], channels: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """The receivers' noiseless forward statistics sqrt(E/n_t) H + A (N^H H),
    (n_t, n_l + n_u, T), the LR's first; draws A (``forward_training``)."""
    n_t, n_l, trials = params.n_t, params.n_l, channels.shape[-1]
    received = np.sqrt(alloc.forward / n_t) * channels
    if alloc.var_a > 0:
        a = complex_gaussian(rng, (n_t, n_t - n_l, trials), alloc.var_a)
        _product(a, null_space_basis(span, channels), received)
    return received


def forward_training(params: SystemParams, alloc: PowerAllocation,
                     span: Optional[np.ndarray], channels: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    r"""Transmitter-to-receivers phase with AN in the estimated null space.

    The transmitter sends sqrt(E/n_t) C_t + A N^H, where N is the null-space
    basis of each trial's ``span`` (None without AN), any (n_t, n_l, T)
    stack with the column space of the transmitter's downlink estimate, the
    estimate itself included, and the n_t x (n_t - n_l) statistic C_t^H A
    is drawn as A, per-entry variance var_a.  The receivers' channels
    H = [H_d, G] come side by side, as ``sample_channels`` draws them, so
    they read sqrt(E/n_t) H + A (N^H H) (``_forward_signal``) plus their
    own noise, W at the LR and V at the UR, drawn after A, and
    ``null_space_basis`` hands back N^H H directly.  Returns their
    statistics side by side, (n_t, n_l + n_u, T), the LR's first.  The SER
    decoders read these noisy statistics; the NMSE score reads the
    noiseless ones and draws only what the noise adds to each receiver's
    squared error (``montecarlo``).
    """
    n_t, n_l, trials = params.n_t, params.n_l, channels.shape[-1]
    received = _forward_signal(params, alloc, span, channels, rng)
    received[:, :n_l] += complex_gaussian(rng, (n_t, n_l, trials), params.var_w)
    received[:, n_l:] += complex_gaussian(rng, (n_t, params.n_u, trials),
                                          params.var_v)
    return received
