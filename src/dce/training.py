r"""Channel sampling and the training-phase statistics.

Every function works on stacks of trials with a leading trial axis, e.g.
``h_d`` is (T, n_t, n_l).  Each pilot phase returns what its receiver's
filter reads, not the tau-slot block it receives.  A pilot phase sends
X = sqrt(E/n) C for a tau x n pilot with C^H C = I_n, and a receiver's
LMMSE filter reads its block Y = X Z + A N^H Z' + W only through
C^H Y = sqrt(E/n) Z + (C^H A) N^H Z' + C^H W.  C^H has orthonormal rows, so
C^H W and C^H A are white with the variances of W and A (Biguesh &
Gershman, IEEE TSP 2006).  The phases draw them as such, so the pilot
length enters only the energy budgets and the AN energy, as in the closed
forms.  The round-trip probe is a scaled identity, so it is a scalar: it is
private to the transmitter and the UR never observes the round trip, so any
scaled unitary probe gives the same joint law of channels and estimates
(``round_trip_training``).

The forward phase never builds the AN basis: ``null_space_basis`` computes
the Householder reflectors of each estimate's QR factorization itself, on
the trial axis with no per-matrix LAPACK call, and applies them straight to
the receivers' channels.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .errors import RankDeficient
from .params import NON_RECIPROCAL, RECIPROCAL, PowerAllocation, SystemParams
from .rng import complex_gaussian

# Rank tolerance for null-space extraction, relative to the largest
# singular value of the estimate.
RANK_RTOL = 1e-10


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


def _householder(a: np.ndarray, n_l: int) -> np.ndarray:
    """Reduce the first n_l columns of ``a`` (n_t, n_l + M, T), a stack of
    T matrices with the trial axis last, to R in place, applying each
    reflector H_k^H to every column to its right as soon as it is formed.
    Returns |r_kk|, (n_l, T).

    Afterwards ``a[:n_l, :n_l]`` holds R (its diagonal the real beta_k),
    column k below the diagonal the tail of v_k (whose head is 1), and
    ``a[:, n_l:]`` the last M columns times Q^H.  Every step works on whole
    rows of the stack: a temporary the size of all of ``a`` would leave the
    cache at large n_t.
    """
    r_kk = np.empty((n_l, a.shape[-1]))
    for k in range(n_l):
        col = a[k:, k]
        alpha, x = col[0], col[1:]
        # zlarfg: H_k^H [alpha; x] = [beta; 0] with beta = -sign(Re alpha)
        # ||[alpha; x]||, tau_k = (beta - alpha)/beta, v_k = [1; x/(alpha -
        # beta)]; a column already of that form (zero tail, real alpha,
        # a zero column too) keeps H_k = I, tau_k = 0 and beta = alpha
        keep = ~x.any(axis=0) & (alpha.imag == 0)
        r_kk[k] = np.sqrt(np.sum(np.abs(col) ** 2, axis=0))
        beta = np.where(keep, alpha.real, np.copysign(r_kk[k], -alpha.real))
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
    return r_kk


def _rank_bound(r_kk: np.ndarray, frob: np.ndarray) -> np.ndarray:
    """A lower bound on s_min/s_max for each of T triangles R with
    diagonal magnitudes ``r_kk`` (n_l, T) and Frobenius norms ``frob``.

    s_max <= ||R||_F, and the other n_l-1 singular values, whose squares
    sum to at most ||R||_F^2, have a product of at most
    (||R||_F^2/(n_l-1))^((n_l-1)/2) by the AM-GM inequality, so
    s_min/s_max >= |det R| (n_l-1)^((n_l-1)/2) / ||R||_F^n_l with
    |det R| = prod |r_kk|.  The product is formed one factor
    |r_kk|/||R||_F <= 1 at a time, so no scale of R overflows.
    """
    n_l = len(r_kk)
    ratios = r_kk / np.where(frob > 0, frob, 1.0)
    return np.prod(ratios, axis=0) * (n_l - 1) ** ((n_l - 1) / 2)


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
    estimate, so the caller must not use it (``forward_training`` raises).

    N is the trailing n_t-n_l columns of Q in the complete QR h_hat = Q R,
    with Q = H_1 ... H_{n_l} the product of n_l Householder reflectors
    H_k = I - tau_k v_k v_k^H.  ``_householder`` computes them column by
    column on [h_hat, m] with the trial axis last, in the convention of
    LAPACK's zlarfg (the routine geqrf calls per column), and applies each
    H_k^H to the columns to its right.  Q is never formed: N^H m is the
    trailing n_t-n_l rows of Q^H m.  ungqr would build Q from the same
    reflectors, so this is its N up to rounding.  zlarfg's one branch,
    tau_k = 0 where v_k's tail and Im alpha vanish, cannot move N either:
    a zero-tail reflector touches only coordinate k < n_l, a row of the
    range of h_hat, and the later reflectors leave that row of
    [0; I_{n_t-n_l}] zero, so N is the same whatever tau_k it takes.
    Unlike LAPACK's norms, the column norms square entries unscaled, so
    entries beyond about 1e150 in magnitude overflow (with a numpy
    RuntimeWarning); the estimates here are of the order of the channels.

    The n_l x n_l triangle R has the singular values of h_hat, so a row
    whose ``_rank_bound`` on s_min/s_max exceeds 2 RANK_RTOL certainly
    passes the rank test.  Only the rows this bound does not clear get
    their singular values computed and the exact test.
    """
    n_t, n_l = h_hat.shape[-2:]
    lead, cols = h_hat.shape[:-2], m.shape[-1]
    stack = h_hat.reshape((-1, n_t, n_l))
    a = np.empty((n_t, n_l + cols, len(stack)), dtype=complex)
    a_trials = a.transpose(2, 0, 1)  # the same block, trial axis first
    a_trials[..., :n_l] = stack
    a_trials[..., n_l:] = m.reshape((-1, n_t, cols))
    # ||R||_F = ||h_hat||_F, as Q is unitary: the root of the sum of the
    # squares of each row's real and imaginary parts
    parts = np.ascontiguousarray(stack).reshape((len(stack), -1)).view(float)
    frob = np.sqrt(np.einsum("ij,ij->i", parts, parts))
    full_rank = _rank_bound(_householder(a, n_l), frob) > 2 * RANK_RTOL
    if not full_rank.all():
        unsure = ~full_rank
        s = np.linalg.svd(stack[unsure], compute_uv=False)
        full_rank[unsure] = np.all(s > RANK_RTOL * s[..., :1], axis=-1)
    seen = a[n_l:, n_l:].transpose(2, 0, 1).reshape(lead + (n_t - n_l, cols))
    return seen, full_rank.reshape(lead)


def reverse_training(params: SystemParams, alloc: PowerAllocation,
                     h_u: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    r"""LR-to-transmitter pilot phase; returns the transmitter's statistic
    ``y_t`` = sqrt(e/n_l) H_u + CN(0, var_wt), (T, n_l, n_t).

    The uplink H_u is H^T in the reciprocal scheme, whose energy e is e_r;
    the echo scheme sends e_2 over its own uplink.
    """
    energy = alloc.e_r if alloc.scheme == RECIPROCAL else alloc.e_2
    noise = complex_gaussian(rng, h_u.shape, params.var_wt)
    return np.sqrt(energy / params.n_l) * h_u + noise


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
                     span: Optional[np.ndarray], h_d: np.ndarray,
                     g: np.ndarray, rng: np.random.Generator,
                     ) -> Tuple[np.ndarray, np.ndarray]:
    r"""Transmitter-to-receivers phase with AN in the estimated null space.

    The transmitter sends sqrt(E/n_t) C_t + A N^H, where N is the null-space
    basis of each trial's ``span`` (None without AN), any (T, n_t, n_l)
    stack with the column space of the transmitter's downlink estimate, the
    estimate itself included, and the n_t x (n_t - n_l) statistic C_t^H A
    is drawn as A, per-entry variance var_a.  With both receivers' channels side by side as H = [H_d, G], they
    read sqrt(E/n_t) H + A (N^H H) plus their own noise, and
    ``null_space_basis`` hands back N^H H directly.  Returns
    ``(y_l, y_u)``, the (T, n_t, n_l) and (T, n_t, n_u) statistics.  A
    trial whose span lost rank leaves AN no null space: RankDeficient is
    raised before the AN is drawn, naming the first such trial.
    """
    energy = alloc.e_f if alloc.scheme == RECIPROCAL else alloc.e_3
    n_t, n_l, trials = params.n_t, params.n_l, h_d.shape[0]
    channels = np.concatenate([h_d, g], axis=-1)
    received = np.sqrt(energy / n_t) * channels
    if alloc.var_a > 0:
        seen, full_rank = null_space_basis(span, channels)
        if not full_rank.all():
            raise RankDeficient("the transmitter's estimate lost rank, so AN "
                                "has no null space", int(np.argmin(full_rank)))
        a = complex_gaussian(rng, (trials, n_t, n_t - n_l), alloc.var_a)
        received += a @ seen
    w = complex_gaussian(rng, (trials, n_t, n_l), params.var_w)
    w += received[..., :n_l]
    v = complex_gaussian(rng, (trials, n_t, params.n_u), params.var_v)
    v += received[..., n_l:]
    return w, v
