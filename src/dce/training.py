r"""Channel sampling, pilot construction and the training-phase signals.

Every function works on stacks of trials: channels and received blocks
carry a leading trial axis, e.g. ``h_d`` is (T, n_t, n_l) and a received
block is (T, tau, M).  Pilot blocks are deterministic truncated-DFT
matrices shared by all trials: the tau x n block made of the first n
columns of the unitary tau-point DFT satisfies C^H C = I_n exactly, which
is the only property the estimators rely on.  The round-trip probe is a
scaled identity, so it is a scalar: it is private to the transmitter and
the UR never observes the round trip, so any scaled unitary probe gives the
same joint law of channels and estimates (``round_trip_training``).

A matrix shared by a whole stack (a pilot block, an estimator's filter)
multiplies it through ``shared_matmul``: one GEMM over all trials rather
than the one tiny GEMM per trial a stacked ``@`` makes.  A training phase
returns what is received, not the pilot sent, which is ``pilot_matrix``
scaled.

The forward phase builds neither the AN basis nor the transmit block.
``null_space_basis`` applies the Householder reflectors of each estimate's
QR factorization straight to the receivers' channels, and
``forward_training`` adds the AN seen through them to the shared pilot
product.
"""

from __future__ import annotations

import functools
from typing import Tuple

import numpy as np

from .params import NON_RECIPROCAL, RECIPROCAL, PowerAllocation, SystemParams
from .rng import complex_gaussian

# Rank tolerance for null-space extraction, relative to the largest
# singular value of the estimate.
RANK_RTOL = 1e-10


def shared_matmul(m: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """``m @ stack`` for a 2-D ``m`` shared by every matrix of a (..., k, M)
    stack, computed as one (r x k) @ (k x ...M) GEMM.

    Swapping the k axis to the front and back again folds the leading axes
    into the column axis and restores them, so any leading shape (none
    included) and any strides are accepted.
    """
    front = stack.swapaxes(0, -2)
    product = m @ front.reshape(front.shape[0], -1)
    return product.reshape((m.shape[0],) + front.shape[1:]).swapaxes(0, -2)


@functools.lru_cache(maxsize=64)
def pilot_matrix(tau: int, n: int) -> np.ndarray:
    """First ``n`` columns of the unitary ``tau``-point DFT (tau x n).

    Cached (and marked read-only) because Monte Carlo blocks request the
    same pilot again and again.
    """
    if n > tau:
        raise ValueError("semi-unitary pilot needs tau >= n")
    j, k = np.meshgrid(np.arange(tau), np.arange(n), indexing="ij")
    block = np.exp(-2j * np.pi * j * k / tau) / np.sqrt(tau)
    block.flags.writeable = False
    return block


def sample_channels(params: SystemParams, mode: str, rng: np.random.Generator,
                    trials: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw ``trials`` i.i.d. complex-Gaussian channel realizations.

    Returns ``(h_d, h_u, g)``: the (T, n_t, n_l) downlink to the LR, the
    (T, n_l, n_t) uplink and the (T, n_t, n_u) downlink to the UR.
    Reciprocal mode sets the uplink to the plain transpose of the downlink;
    non-reciprocal mode draws independent downlink and uplink matrices with
    their own variances.
    """
    if mode == RECIPROCAL:
        h_d = complex_gaussian(rng, (trials, params.n_t, params.n_l), params.var_h)
        h_u = np.swapaxes(h_d, -1, -2)
    elif mode == NON_RECIPROCAL:
        h_d = complex_gaussian(rng, (trials, params.n_t, params.n_l), params.var_hd)
        h_u = complex_gaussian(rng, (trials, params.n_l, params.n_t), params.var_hu)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    g = complex_gaussian(rng, (trials, params.n_t, params.n_u), params.var_g)
    return h_d, h_u, g


def null_space_basis(h_hat: np.ndarray,
                     m: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(N^H m, full_rank)``: the stack ``m`` (..., n_t, M) seen through the
    orthonormal bases N (..., n_t, n_t-n_l) of the left null spaces of a
    stack of estimates (..., n_t, n_l), and the mask of full-rank rows.
    ``m`` may also be one (n_t, M) matrix for the whole stack; with the
    identity it gives N^H itself.

    For every full-rank row N^H h_hat = 0 and N^H N = I.  A row is
    rank-deficient when a singular value is at most RANK_RTOL times its
    largest one; its basis is still orthonormal but does not null the
    estimate, so the caller must redraw that row.

    N is the trailing n_t-n_l columns of Q in the complete QR h_hat = Q R,
    with Q = H_1 ... H_{n_l} the product of the n_l Householder reflectors
    H_k = I - tau_k v_k v_k^H that LAPACK's geqrf leaves behind.  Q is never
    formed: Q^H m is m with H_1^H, ..., H_{n_l}^H applied in turn, and N^H m
    is its trailing n_t-n_l rows.  Forming Q (ungqr) builds it from the same
    reflectors, so this is the same basis N, up to rounding.

    The n_l x n_l triangle R has the singular values of h_hat, and
    s_max <= ||R||_F while s_min s_max^(n_l-1) >= |det R| = prod |r_kk|, so
    a row with prod |r_kk| > 2 RANK_RTOL ||R||_F^n_l certainly passes the
    rank test.  Only the rows this bound does not clear get their singular
    values computed and the exact test.
    """
    n_t, n_l = h_hat.shape[-2:]
    lead = h_hat.shape[:-2]
    stack = h_hat.reshape((-1, n_t, n_l))
    h, tau = np.linalg.qr(stack, mode="raw")
    # geqrf's (n_t, n_l) array per trial, with the trial axis last so that
    # every elementwise loop below runs over the whole stack: its upper
    # triangle is R, and column k below the diagonal is the tail of v_k
    # (whose leading entry is 1).  raw mode hands it over transposed.
    a = np.transpose(h, (2, 1, 0)).copy()
    det, frob_sq = 1.0, 0.0
    for k in range(n_l):
        col = a[:k + 1, k]  # R's column k
        det = det * np.abs(col[k])
        frob_sq = frob_sq + np.sum(col.real ** 2 + col.imag ** 2, axis=0)
    full_rank = det > 2 * RANK_RTOL * np.sqrt(frob_sq) ** n_l
    unsure = ~full_rank
    if unsure.any():
        s = np.linalg.svd(stack[unsure], compute_uv=False)
        full_rank[unsure] = np.all(s > RANK_RTOL * s[..., :1], axis=-1)
    m_stack = np.broadcast_to(m, lead + m.shape[-2:]).reshape((-1,) + m.shape[-2:])
    out = np.transpose(m_stack, (1, 2, 0)).astype(complex, order="C")
    conj_tau = np.conj(tau.T)
    for k in range(n_l):
        v = a[k + 1:, k, None]
        tail = out[k + 1:]
        # H_k^H out = out - conj(tau_k) v_k (v_k^H out), row k taking v_k's 1
        w = out[k] + np.sum(np.conj(v) * tail, axis=0)
        w *= conj_tau[k]
        out[k] -= w
        tail -= v * w
    seen = np.moveaxis(out[n_l:], -1, 0).reshape(lead + (n_t - n_l, m.shape[-1]))
    return seen, full_rank.reshape(lead)


def reverse_training(params: SystemParams, alloc: PowerAllocation,
                     h_u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    r"""LR-to-transmitter pilot phase; returns the received stack ``y_t``.

    Reciprocal: X_L = sqrt(E_R/n_l) C_L (tau_r x n_l, shared by every
    trial), received Y_t = X_L H^T + noise (T, tau_r, n_t).  Non-reciprocal:
    the same structure with energy e_2 over n_l slots and the uplink
    channel.  Noise variance at the transmitter is var_wt in both cases.
    """
    if alloc.scheme == RECIPROCAL:
        energy, tau = alloc.e_r, params.tau_r
    else:
        energy, tau = alloc.e_2, params.n_l
    x_l = np.sqrt(energy / params.n_l) * pilot_matrix(tau, params.n_l)
    noise = complex_gaussian(rng, (h_u.shape[0], tau, params.n_t), params.var_wt)
    return shared_matmul(x_l, h_u) + noise


def echo_gain(params: SystemParams, e_0: float, e_1: float) -> float:
    """Amplifying gain applied by the LR to its received round-trip block."""
    denom = e_0 * params.n_l * params.var_hd + params.n_t * params.n_l * params.var_w
    return float(np.sqrt(e_1 / denom))


def round_trip_training(params: SystemParams, alloc: PowerAllocation,
                        h_d: np.ndarray, h_u: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    r"""Transmitter probe + LR echo (non-reciprocal scheme only); returns
    the (T, n_t, n_t) stack ``y_t1`` the transmitter receives.

    The probe is X_t0 = sqrt(e_0/n_t) I, so trace(X_t0^H X_t0) = e_0 as
    required, and it enters as that scalar.  The LR receives
    Y_L0 = X_t0 H_d + W_0, applies the gain alpha (``echo_gain``), and the
    transmitter observes Y_t1 = alpha X_t0 H_d H_u + alpha W_0 H_u + W_1.
    The gain normalizes the mean echo energy to exactly e_1.

    The simulator may fix the probe because it is private to the
    transmitter and the UR never observes the round trip: only
    X_t0^H Y_t1 reaches any estimate.  For a probe c Q with Q unitary,
    Q^H Y_t1 = alpha c H_d H_u + alpha (Q^H W_0) H_u + Q^H W_1, and Q^H W
    has the law of W for white Gaussian W.  So every scaled unitary probe,
    a Haar-random one included, gives the same joint law of the channels
    and the estimates as Q = I, which needs no draw and no QR.
    """
    if alloc.scheme != NON_RECIPROCAL:
        raise ValueError("round-trip training exists only in the non-reciprocal scheme")
    n_t, trials = params.n_t, h_d.shape[0]
    # the probe is square, so the round trip takes n_t slots
    w_0 = complex_gaussian(rng, (trials, n_t, params.n_l), params.var_w)
    y_l0 = np.sqrt(alloc.e_0 / n_t) * h_d + w_0
    alpha = echo_gain(params, alloc.e_0, alloc.e_1)
    w_1 = complex_gaussian(rng, (trials, n_t, n_t), params.var_wt)
    return alpha * (y_l0 @ h_u) + w_1


def forward_training(params: SystemParams, alloc: PowerAllocation,
                     h_d_hat: np.ndarray, h_d: np.ndarray, g: np.ndarray,
                     rng: np.random.Generator,
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    r"""Transmitter-to-receivers phase with AN in the estimated null space.

    The transmitter sends X_t = sqrt(E/n_t) C_t + A N^H, where N is the
    null-space basis of each trial's estimate ``h_d_hat`` and A is
    tau_f x (n_t - n_l) with per-entry variance var_a.  Both receivers
    observe their channel through X_t plus their own noise.  Returns
    ``(y_l, y_u, full_rank)``: the two received stacks and the mask of
    trials whose estimate had full rank (all True without AN).

    X_t itself is never formed.  With both receivers' channels side by side
    as H = [H_d, G], X_t H = sqrt(E/n_t) C_t H + A (N^H H): the pilot part
    is one GEMM shared by the whole stack, and ``null_space_basis`` hands
    back N^H H directly.
    """
    energy = alloc.e_f if alloc.scheme == RECIPROCAL else alloc.e_3
    tau_f = params.tau_f if alloc.scheme == RECIPROCAL else params.n_t
    trials = h_d.shape[0]
    pilot = np.sqrt(energy / params.n_t) * pilot_matrix(tau_f, params.n_t)
    channels = np.concatenate([h_d, g], axis=-1)
    received = shared_matmul(pilot, channels)
    if alloc.var_a > 0:
        seen, full_rank = null_space_basis(h_d_hat, channels)
        a = complex_gaussian(rng, (trials, tau_f, params.n_t - params.n_l),
                             alloc.var_a)
        received += a @ seen
    else:
        full_rank = np.ones(trials, dtype=bool)
    w = complex_gaussian(rng, (trials, tau_f, params.n_l), params.var_w)
    w += received[..., :params.n_l]
    v = complex_gaussian(rng, (trials, tau_f, params.n_u), params.var_v)
    v += received[..., params.n_l:]
    return w, v, full_rank
