"""Stable-manifold machinery near regular saddle points of the constrained
objective.

The penalized stationary path g(gamma) solves grad h(g) + gamma Q g = 0 and
collapses onto the saddle as the penalty grows. Linearizing the flow about
g(gamma_t) gives the symmetric matrix A(t) = -hess h(g) - gamma_t Q, whose
eigenframe U(t) (tracked continuously in t) splits coordinates into an
unstable block (positive eigenvalues, count n_u) and a stable block. The
manifold of initial conditions attracted to the saddle is the graph of a map
psi from the stable block into the unstable block, computed as the fixed
point of an integral equation: the stable-propagated initial condition, plus
the stable-evolution integral of the nonlinear remainder minus the
path-motion forcing, minus the unstable-evolution tail integral truncated at
a certified horizon.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np

from .engine import row_norms
from .errors import (
    ContractionError,
    DegenerateJacobianError,
    EigvecContinuityError,
    HorizonError,
    NewtonError,
    PartitionError,
    RegularityError,
)
from .graphs import PenaltyMatrix, _fix_eigvec_signs

GRAD_TOL = 1e-9
MIN_RESTRICTED_EIG = 1e-6
PARTITION_TOL = 1e-8
MATCH_OVERLAP_FLOOR = 0.7
# An orthogonal matrix's entry above 1/sqrt(2) in absolute value dominates its
# row and its column; the margin absorbs the frames' rounding.
UNIQUE_MATCH_OVERLAP = np.sqrt(0.5) + 1e-9
NEWTON_MAX_ITER = 50
REF_POINTS = 256            # reference-track times over the model span
PICARD_MAX_ITERS = 60
TAIL_TOL = 1e-6             # certified truncated-tail budget


@dataclass(frozen=True)
class SaddleContext:
    """A critical point of the restricted objective with an invertible
    restricted Hessian, plus the penalty and weight function around it."""

    loss: object
    q: PenaltyMatrix
    gamma: object       # callable t -> gamma_t with .derivative
    saddle: np.ndarray
    n_u: int
    n_s: int

    @property
    def dim(self):
        return len(self.saddle)

    @property
    def qmat(self):
        return self.q.matrix


def saddle_context(loss, q, gamma, saddle):
    """Validate the critical point and count its unstable directions.

    n_u is the number of unstable directions of the restricted descent flow,
    i.e. negative eigenvalues of the restricted Hessian; the penalty makes
    every off-constraint direction stable for large t.
    """
    saddle = np.asarray(saddle, dtype=float)
    if loss.hessian is None:
        raise ValueError("saddle analysis needs a twice-differentiable loss near the point")
    basis = q.rotation.constraint_basis
    grad_c = loss.subgradient(saddle) @ basis
    if np.linalg.norm(grad_c) > GRAD_TOL:
        raise RegularityError(
            f"restricted gradient norm {np.linalg.norm(grad_c):.2e} exceeds {GRAD_TOL:g}")
    hess_c = basis.T @ loss.hessian(saddle) @ basis
    eig_c = np.linalg.eigvalsh(hess_c)
    if np.min(np.abs(eig_c)) <= MIN_RESTRICTED_EIG:
        raise RegularityError(
            f"restricted Hessian eigenvalue {eig_c[np.argmin(np.abs(eig_c))]:.2e} "
            "is too close to zero")
    n_u = int(np.sum(eig_c < 0))
    return SaddleContext(loss, q, gamma, saddle, n_u, len(saddle) - n_u)


def _row_products(mats, v):
    """mats[i] @ v[i] for every row i as a fixed-order sum of elementwise
    products, so a row's bits do not depend on how many rows there are.
    mats is one (M, M) matrix or one per row, (n, M, M); v is (n, M)."""
    return np.sum(mats * v[:, None, :], axis=-1)


def _stationarity(loss, qmat, gammas, x):
    """grad h(x) + gamma Q x, one penalty level gammas[i] per row of x."""
    return loss.subgradient(x) + gammas[:, None] * _row_products(qmat, x)


def _newton_stationary(loss, qmat, gammas, starts):
    """Row-wise Newton solve of grad h(x) + gamma Q x = 0, one penalty level
    and start per row. Each row stops at its own residual <= GRAD_TOL, so its
    bits do not depend on the other rows."""
    x = np.array(starts, dtype=float)
    for _ in range(NEWTON_MAX_ITER):
        r = _stationarity(loss, qmat, gammas, x)
        moving = np.linalg.norm(r, axis=1) > GRAD_TOL
        if not np.any(moving):
            return x
        jac = loss.hessian(x[moving]) + gammas[moving, None, None] * qmat
        try:
            step = np.linalg.solve(jac, r[moving, :, None])[:, :, 0]
        except np.linalg.LinAlgError as exc:
            raise DegenerateJacobianError("singular penalized Hessian in a Newton step") from exc
        if not np.all(np.isfinite(step)):
            raise NewtonError("Newton step not finite")
        x[moving] -= step
    raise NewtonError(f"Newton did not reach residual {GRAD_TOL:g} at every penalty level")


@dataclass(frozen=True)
class SpectralSplit:
    """Eigenframe of the flow linearization at one time, unstable block first.

    Rows of modes are eigenvectors: modes @ a_matrix @ modes.T = diag(lambdas).

    Test-only: the split that acceptance test_07 inspects.
    """

    a_matrix: np.ndarray
    modes: np.ndarray
    lambdas: np.ndarray
    n_u: int


def _match_to_previous(prev_modes, w, v):
    """Permute and sign-fix eigenvector columns to follow the previous frames,
    stacked: prev_modes and v are (n, M, M), w is (n, M), and frame k depends
    on its own inputs alone. Returns eigenvalues and eigenframes (rows).

    The permutation maximizes the summed |overlap| of matched modes. When
    every row's largest |overlap| is above 1/sqrt(2), the rows' argmaxes are
    that assignment, and its only optimum; otherwise it is solved exactly.
    """
    overlap = prev_modes @ v
    size = np.abs(overlap)
    frames, rows = np.arange(len(size))[:, None], np.arange(size.shape[1])
    perm = np.argmax(size, axis=2)
    chosen = size[frames, rows, perm]
    for k in np.flatnonzero(np.min(chosen, axis=1) <= UNIQUE_MATCH_OVERLAP):
        from scipy.optimize import linear_sum_assignment

        assigned, cols = linear_sum_assignment(-size[k])
        perm[k, assigned] = cols
        chosen[k] = size[k, assigned, cols]
    if np.min(chosen) < MATCH_OVERLAP_FLOOR:
        raise EigvecContinuityError(
            f"eigenvector tracking overlap dropped to {np.min(chosen):.3f}; "
            "continuity of the eigenframe is ambiguous here")
    signs = np.sign(overlap[frames, rows, perm])
    signs[signs == 0] = 1.0
    return w[frames, perm], v.swapaxes(1, 2)[frames, perm] * signs[:, :, None]


def _splits(context, times, points, reference_modes):
    """Penalized Hessians hess h(g) + gamma_t Q at path points g (n, M), and
    the eigenvalues and eigenframes (rows are eigenvectors) of the flow
    linearizations A(t) = -(hess h(g) + gamma_t Q), one stacked eigh for all.

    Row k is matched to reference_modes[k]. Without reference frames, the
    first row is sorted descending (unstable block first) with sign-fixed
    eigenvectors and each later row is matched to the row before it.
    Eigenvalues within PARTITION_TOL of zero cannot be assigned a side and
    raise PartitionError.
    """
    times = np.asarray(times, dtype=float)
    gammas = np.asarray(context.gamma(times), dtype=float)
    jac = context.loss.hessian(points) + gammas[:, None, None] * context.qmat
    w, v = np.linalg.eigh(-jac)
    rows, cols = np.nonzero(np.abs(w) < PARTITION_TOL)
    if len(rows):
        raise PartitionError(f"eigenvalue {w[rows[0], cols[0]]:.2e} at "
                             f"t={times[rows[0]]:g} is too close to zero")
    if reference_modes is not None:
        return (jac, *_match_to_previous(reference_modes, w, v))
    lambdas, modes = np.empty_like(w), np.empty_like(v)
    order = np.argsort(w[0])[::-1]
    lambdas[0], modes[0] = w[0, order], _fix_eigvec_signs(v[0][:, order]).T
    for k in range(1, len(w)):
        lambdas[k:k + 1], modes[k:k + 1] = _match_to_previous(
            modes[k - 1:k], w[k:k + 1], v[k:k + 1])
    return jac, lambdas, modes


def _mode_rates(modes, h):
    """The mode rate Udot U^T at the inner rows of frames tracked at spacing
    h: a central difference, (n, M, M) from (n + 2, M, M) frames."""
    return (modes[2:] - modes[:-2]) / (2.0 * h) @ modes[1:-1].swapaxes(1, 2)


def linearize(context, t, g_at_t, reference_modes=None):
    """Spectral split of A(t) = -hess h(g_at_t) - gamma_t Q, where g_at_t is
    the path point g(gamma_t); a one-row view of `_splits`.

    Test-only: acceptance test_07 checks the spectral structure one time at a time.
    """
    jac, w, modes = _splits(context, [t], np.asarray(g_at_t, dtype=float)[None],
                            None if reference_modes is None else reference_modes[None])
    return SpectralSplit(-jac[0], modes[0], w[0], int(np.sum(w[0] > 0)))


@dataclass(frozen=True)
class Frame:
    """Per-time linear maps: the eigenframe U(t) (rows are eigenvectors) or its
    rate Udot U^T. `matrices` is one (M, M) matrix when the frame does not
    move, otherwise one per grid time, (n, M, M).

    rotate(v) = U v and unrotate(v) = U^T v act on the last axis of v. A
    constant frame is one GEMM over all leading axes; a time-varying frame
    takes v of shape (batch, n, M) and is one batched matmul over the grid.
    Both write into `out` when given, a C-contiguous array of v's shape.
    `transposed` holds U^T as a C-contiguous copy: a transposed view as
    matmul's operand takes numpy's slow non-BLAS loop, with the same bits.
    """

    matrices: np.ndarray
    transposed: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "transposed",
                           np.ascontiguousarray(self.matrices.swapaxes(-1, -2)))

    def rotate(self, v, out=None):
        return self._right_multiply(v, self.transposed, out)

    def unrotate(self, v, out=None):
        return self._right_multiply(v, self.matrices, out)

    @staticmethod
    def _right_multiply(v, mats, out):
        v = np.asarray(v, dtype=float)
        if out is None:
            out = np.empty(v.shape)
        if mats.ndim == 2:
            np.matmul(v.reshape(-1, v.shape[-1]), mats, out=out.reshape(-1, v.shape[-1]))
        else:
            np.matmul(v.swapaxes(0, 1), mats, out=out.swapaxes(0, 1))
        return out


@dataclass
class PicardFrame:
    """Everything the integral equation needs on a uniform grid from t0."""

    times: np.ndarray
    n_u: int
    lambdas: np.ndarray        # (n, M), unstable block first
    rotation: Frame            # U(t)
    cumlam: np.ndarray         # (n, M), trapezoid cumulative integral of lambdas
    gamma_vals: np.ndarray
    g_path: np.ndarray         # (n, M)
    forcing: np.ndarray        # (n, M): U(t) g'(gamma_t) gammadot_t
    mode_rate: Frame | None    # Udot U^T; None for the model's fixed frame

    @property
    def t0(self):
        return float(self.times[0])


def evolution_operator(frame, t1, t2, which):
    """Block-diagonal evolution operator exp(int_{t1}^{t2} Lambda_block).

    The stable operator propagates forward (t2 >= t1), the unstable one
    backward (t2 <= t1); both directions are contractions. Both times must
    lie on the frame's grid span.
    """
    if not (frame.times[0] <= min(t1, t2) and max(t1, t2) <= frame.times[-1]):
        raise ValueError(f"times {t1:g} and {t2:g} must lie in the frame's grid span "
                         f"[{frame.times[0]:g}, {frame.times[-1]:g}]")
    m = frame.lambdas.shape[1]
    n_u = frame.n_u
    if which == "stable":
        if t2 < t1:
            raise ValueError("stable evolution needs t2 >= t1")
        idx = slice(n_u, m)
    elif which == "unstable":
        if t2 > t1:
            raise ValueError("unstable evolution needs t2 <= t1")
        idx = slice(0, n_u)
    else:
        raise ValueError("which must be 'stable' or 'unstable'")
    diag = np.zeros(m)
    diag[idx] = np.exp([np.interp(t2, frame.times, c) - np.interp(t1, frame.times, c)
                        for c in frame.cumlam.T[idx]])
    return np.diag(diag)


def _phi1(a):
    out = np.ones_like(a)
    big = np.abs(a) > 1e-12
    out[big] = np.expm1(a[big]) / a[big]
    return out


def _phi_tilde(a):
    # int_0^1 s e^{a s} ds  (= 1/2 at a = 0), computed stably
    out = np.full_like(a, 0.5)
    small = np.abs(a) < 1e-4
    out[small] = 0.5 + a[small] / 3.0 + a[small] ** 2 / 8.0
    big = ~small
    ab = a[big]
    out[big] = (np.exp(ab) - _phi1(ab)) / ab
    return out


SCAN_SPAN = 1.0   # largest cumulative exponent inside one block of the scan


def _view(flat, shape):
    """C-contiguous view of the leading elements of a flat buffer."""
    return flat[: math.prod(shape)].reshape(shape)


class _BlockScan:
    """x_0 = 0, x_{i+1} = e^{log_decay_i} x_i + inc_i for every i at once; with
    reverse, x_{n-1} = 0, x_i = e^{log_decay_i} x_{i+1} + inc_i instead.

    log_decay is (n-1, m). Blocked scan: from a block start s, x_{s+k} =
    e^{c_k} (x_s + sum_{i<k} e^{-c_{i+1}} inc_{s+i}), where c is the cumulative
    exponent from s. Blocks are short enough that |c| <= SCAN_SPAN, so the
    rescaled terms stay within a factor e^SCAN_SPAN of each other; block starts
    are carried in a loop. The block exponentials e^c depend on log_decay
    alone and are computed here, once.

    The scan runs in place in a padded buffer x of shape
    (batch, 1 + blocks * block length, m), in the forward time order: x[:, 0]
    is the zero start and row i + 1 takes the increment of step i.
    """

    def __init__(self, log_decay, reverse=False):
        # a stiff step's e^{log_decay} underflows to 0 below about -745, and a
        # one-step block then divides by it; e^-600 is as negligible beside
        # any increment, and e^600 times one stays finite
        log_decay = np.maximum(log_decay, -600.0)
        if reverse:
            log_decay = log_decay[::-1]
        steps, m = log_decay.shape
        peak = float(np.max(np.abs(log_decay), initial=0.0))
        block = max(1, min(steps, int(SCAN_SPAN / peak) if peak > 0.0 else steps))
        n_blocks = -(-steps // block)
        padded = np.zeros((n_blocks * block, m))
        padded[:steps] = log_decay
        self.grow = np.exp(np.cumsum(padded.reshape(n_blocks, block, m), axis=1))
        self.steps = steps
        self.reverse = reverse

    def buffer_shape(self, batch):
        n_blocks, block, m = self.grow.shape
        return batch, 1 + n_blocks * block, m

    def increments(self, x):
        """The (batch, n-1, m) view of x that takes inc, in the caller's order."""
        inc = x[:, 1 : self.steps + 1]
        return inc[:, ::-1] if self.reverse else inc

    def run(self, x, carry):
        """Scan the increments in x in place and return x's (batch, n, m) view
        that holds the solution, in the caller's order. carry is a flat
        scratch buffer of at least batch * block length * m elements."""
        n_blocks, block, m = self.grow.shape
        batch = x.shape[0]
        x[:, 0] = 0.0
        x[:, self.steps + 1 :] = 0.0
        blocks = x[:, 1:].reshape(batch, n_blocks, block, m)
        np.divide(blocks, self.grow, out=blocks)
        np.cumsum(blocks, axis=2, out=blocks)
        np.multiply(self.grow, blocks, out=blocks)
        carry = _view(carry, (batch, block, m))
        for k in range(1, n_blocks):
            np.multiply(self.grow[k], blocks[:, k - 1, -1:], out=carry)
            np.add(blocks[:, k], carry, out=blocks[:, k])
        x = x[:, : self.steps + 1]
        return x[:, ::-1] if self.reverse else x


def _decay_scan(log_decay, inc, reverse=False):
    """The blocked scan of `_BlockScan` on inc of shape (batch, n-1, m);
    returns x, (batch, n, m).

    Test-only: the seam that checks the scan against the sequential recursion.
    """
    scan = _BlockScan(log_decay, reverse)
    x = np.empty(scan.buffer_shape(inc.shape[0]))
    scan.increments(x)[...] = inc
    return scan.run(x, np.empty(x.size))


_SHARED = threading.local()


def _shared_buffer(size):
    """The calling thread's flat scratch buffer, at least `size` elements long.
    It grows to the largest solve and every later solve of every model reuses
    it, so its pages are faulted in once rather than once per solve."""
    buffer = getattr(_SHARED, "buffer", None)
    if buffer is None or buffer.size < size:
        _SHARED.buffer = None       # release the smaller one first
        buffer = _SHARED.buffer = np.empty(size)
    return buffer


class _PicardWork:
    """One Picard solve's buffers and the operator's coefficients that no
    substitution changes, set up once per solve and reused by every
    substitution.

    The buffers are carved from the thread's shared flat buffer
    (`_shared_buffer`), so a solve allocates none of them; every buffer is
    written before it is read, and a caller copies what it returns. Each
    substitution writes the remainder field into `g` (with `w` and `q` as
    its scratch) and the new iterate into one of `iterates`; a substitution
    on the first k rows uses the first k rows of each. `blocks` holds each
    block's columns, weights (phi1, phi_tilde) and scan: stable forward on
    a_i, unstable (absent when n_u = 0) backward on -a_i. They share the
    padded scan buffer `scan` and the difference buffer `diff`, also the
    scan's carry scratch. `start` is the stable block's initial condition
    propagated along the grid.
    """

    def __init__(self, frame, a_s):
        batch = len(a_s)
        n, m = frame.lambdas.shape
        n_u = frame.n_u
        a_coef = frame.cumlam[1:] - frame.cumlam[:-1]          # (n-1, M)
        prop = np.exp(frame.cumlam[:, n_u:] - frame.cumlam[0, n_u:])
        sides = [(slice(n_u, m), a_coef[:, n_u:], False)]
        if n_u:
            sides.append((slice(0, n_u), -a_coef[:, :n_u], True))
        self.blocks = [(cols, (_phi1(a), _phi_tilde(a)), _BlockScan(a, reverse))
                       for cols, a, reverse in sides]
        shapes = [(batch, n, m)] * 5 + [(batch, n, m - n_u)]
        sizes = [math.prod(shape) for shape in shapes] + [
            max(math.prod(scan.buffer_shape(batch)) for _, _, scan in self.blocks),
            batch * (n - 1) * max(n_u, m - n_u)]
        *parts, _ = np.split(_shared_buffer(sum(sizes)), np.cumsum(sizes))
        u, new, self.g, self.w, self.q, self.start = (
            part.reshape(shape) for part, shape in zip(parts, shapes))
        self.iterates = u, new
        self.scan, self.diff = parts[len(shapes):]
        np.multiply(prop, a_s[:, None, :], out=self.start)

    def row_changes(self, new, old):
        """Each row's max |new - old|, computed in the scratch buffer w."""
        change = np.subtract(new, old, out=self.w[: len(new)])
        return np.max(np.abs(change, out=change), axis=(1, 2))


@dataclass(frozen=True)
class PicardOptions:
    horizon: float = 12.0
    dt: float = 0.01
    tail: float = 6.0
    tol: float = 1e-9           # fixed-point sup-norm tolerance

    @property
    def horizon_steps(self):
        """Grid steps up to the horizon; the tail window follows them."""
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class PicardSolution:
    """Converged fixed point of the manifold integral equation on a grid."""

    times: np.ndarray
    u: np.ndarray              # (batch, n, M)
    n_u: int
    deltas: np.ndarray         # sup-norm change per iteration
    residual: float            # change of one extra substitution
    tail_estimate: float

    @property
    def iterations(self):
        return len(self.deltas)

    @property
    def psi(self):
        """Unstable components at the initial time, one row per stable
        initial condition."""
        return self.u[:, 0, : self.n_u]

    def contraction_ratios(self):
        d = self.deltas[self.deltas > 0]
        return d[1:] / d[:-1] if len(d) > 1 else np.array([])


class ManifoldModel:
    """Precomputed manifold data for one saddle: the reference eigenframe
    track and the coordinate change z = U(t) (x - g(gamma_t)). Every path
    point and eigenframe comes from one tracker, `_track`. Nothing changes
    after `__init__`: each integral-equation frame is built when a solve
    asks for it, as a pure function of its start time."""

    def __init__(self, context, t_start, t_end, picard=PicardOptions(), radius=0.3):
        if not (np.isfinite(t_start) and np.isfinite(t_end)):
            raise ValueError("the model span must be finite")
        if t_end <= t_start:
            raise ValueError("t_end must exceed t_start")
        self.context = context
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.picard = picard
        self.radius = float(radius)
        self.fixed_frame = self.ref_times = None
        # the reference track runs backward from the largest penalty, where
        # the path is closest to the saddle
        times = np.linspace(self.t_start, self.t_end, REF_POINTS)
        points, _, modes, _ = self._track(times[::-1])
        self.ref_times, self.ref_g, self.ref_modes = times, points[::-1], modes[::-1]
        self._detect_structure()

    # -- the tracked path ----------------------------------------------------

    def _track(self, times):
        """(path points g(gamma_t), eigenvalues, eigenframes U(t), forcing
        U g'(gamma_t) gammadot_t) at `times`, all rows at once.

        Each row's Newton solve starts from, and its eigenvectors are matched
        to, the reference point and frame at or after its own time, so with
        an oracle that acts row by row, a row's bits do not depend on the
        other rows. While the reference track itself is built, Newton starts
        at the saddle and each row is matched to the row before it, the first
        sorted descending. Every tracked row must keep the saddle's sign
        pattern, n_u positive eigenvalues first.

        A fixed frame (g = saddle, constant U) needs no tracking: there the
        eigenvalues are affine in gamma and the forcing is zero.
        """
        ctx = self.context
        times = np.asarray(times, dtype=float)
        n, m = len(times), ctx.dim
        gammas = np.asarray(ctx.gamma(times), dtype=float)
        if self.fixed_frame is not None:
            u = self.fixed_frame
            base = np.diag(u @ (-ctx.loss.hessian(ctx.saddle)) @ u.T)
            qdiag = np.diag(u @ ctx.qmat @ u.T)
            return (np.tile(ctx.saddle, (n, 1)),
                    base[None, :] - gammas[:, None] * qdiag[None, :],
                    np.broadcast_to(u, (n, m, m)), np.zeros((n, m)))
        if self.ref_times is None:
            starts, refs = np.broadcast_to(ctx.saddle, (n, m)), None
        else:
            i = np.clip(np.searchsorted(self.ref_times, times), 1, len(self.ref_times) - 1)
            starts, refs = self.ref_g[i], self.ref_modes[i]
        points = _newton_stationary(ctx.loss, ctx.qmat, gammas, starts)
        jac, lambdas, frames = _splits(ctx, times, points, refs)
        if np.any(lambdas[:, : ctx.n_u] <= 0) or np.any(lambdas[:, ctx.n_u:] >= 0):
            raise PartitionError(
                f"split sign pattern unstable between t={np.min(times):g} and "
                f"t={np.max(times):g}: it is not the saddle's; raise t_start")
        g_prime = -np.linalg.solve(jac, _row_products(ctx.qmat, points)[:, :, None])[:, :, 0]
        gdot = np.asarray(ctx.gamma.derivative(times), dtype=float)
        forcing = _row_products(frames, g_prime * gdot[:, None])
        return points, lambdas, frames, forcing

    def _detect_structure(self):
        ctx = self.context
        stationary = (np.linalg.norm(ctx.loss.subgradient(ctx.saddle)) <= 1e-12
                      and np.linalg.norm(ctx.qmat @ ctx.saddle) <= 1e-12)
        const_modes = bool(
            np.max(np.abs(self.ref_modes[0] - self.ref_modes[-1])) < 1e-10
            and np.max(np.abs(self.ref_modes[len(self.ref_modes) // 2]
                              - self.ref_modes[-1])) < 1e-10)
        self.psi_is_zero = False
        if not (stationary and const_modes):
            return
        self.fixed_frame = self.ref_modes[-1]
        # remainder-free detection: along a stationary path the nonlinear
        # remainder reduces to the gradient's linearization error at the
        # saddle, which vanishes identically for quadratic objectives
        hess = ctx.loss.hessian(ctx.saddle)
        rng = np.random.default_rng(0)
        offsets = self.radius * rng.standard_normal((16, ctx.dim))
        grad0 = ctx.loss.subgradient(ctx.saddle)
        lin_err = ctx.loss.subgradient(ctx.saddle + offsets) - grad0 - offsets @ hess
        scale = max(1.0, float(np.max(np.abs(hess))))
        self.psi_is_zero = float(np.max(np.abs(lin_err))) <= 1e-12 * scale

    # -- coordinate machinery ----------------------------------------------

    def _path_frames(self, times):
        """Path points g(gamma_t), (n, M), and eigenframes U(t) at a 1-D
        array of n times; a fixed frame is its one (M, M) matrix."""
        if self.fixed_frame is not None:
            return self.context.saddle[None], self.fixed_frame
        g, _, modes, _ = self._track(times)
        return g, modes

    def coordinate_change(self, x, t, out=None):
        """z = U(t) (x - g(gamma_t)); batched over leading axes of x, written
        into `out` when given (a C-contiguous array of x's shape).

        With a 1-D array of n times, x has shape (n, rows, M) and x[i] is
        taken at t[i]: one stacked product of n (rows, M) x (M, M) GEMMs, so
        each block has the bits of a call at its time alone (one GEMM over
        all n * rows rows would wake a second BLAS thread). A scalar time is
        the case n = 1.
        """
        x = np.asarray(x, dtype=float)
        g, modes = self._path_frames(np.reshape(t, -1))
        stacked = x if np.ndim(t) else x.reshape(1, -1, x.shape[-1])
        # g repeated along the rows: a contiguous operand, so the subtraction
        # runs in long inner loops rather than one per M-vector
        offset = stacked - np.repeat(g[:, None, :], stacked.shape[1], axis=1)
        # a C-contiguous U^T: a transposed view takes numpy's slow non-BLAS
        # loop, with the same bits
        z = np.matmul(offset, np.ascontiguousarray(modes.swapaxes(-1, -2)),
                      out=None if out is None else out.reshape(stacked.shape))
        return z.reshape(x.shape) if out is None else out

    def drive_field(self, x, t):
        """Right-hand side of the flow, -grad h(x) - gamma_t Q x."""
        x = np.asarray(x, dtype=float)
        return -self.context.loss.subgradient(x) - float(self.context.gamma(t)) \
            * (x @ self.context.qmat)

    def local_linearization(self, t):
        """(lambdas, modes, mode rate, forcing, path point) at a single time.
        The mode rate is the frame's: a central difference of the frames at
        t +- the Picard grid step."""
        h = self.picard.dt
        g, lam, modes, forcing = self._track([t - h, t, t + h])
        return lam[1], modes[1], _mode_rates(modes, h)[0], forcing[1], g[1]

    # -- frames --------------------------------------------------------------

    def frame(self, t0):
        """The integral equation's frame from t0, built anew on every call."""
        return self._build_frame(float(t0))

    def _build_frame(self, t0):
        ctx = self.context
        opts = self.picard
        if t0 < self.t_start - 1e-9:
            raise ValueError(f"t0={t0:g} is before the model span")
        n = int(round((opts.horizon + opts.tail) / opts.dt)) + 1
        # one tracked row beyond each end of the grid, for the mode rate
        tracked = t0 + opts.dt * np.arange(-1, n + 1)
        times = tracked[1:-1]
        if times[-1] > self.t_end + 1e-9:
            raise ValueError("frame grid exceeds the model span; extend t_end")
        g_path, lam, modes, forcing = self._track(tracked)
        g_path, lam, forcing = g_path[1:-1], lam[1:-1], forcing[1:-1]
        cumlam = np.zeros((n, ctx.dim))
        cumlam[1:] = np.cumsum(0.5 * (lam[1:] + lam[:-1]) * opts.dt, axis=0)
        if self.fixed_frame is None:
            rotation, mode_rate = Frame(modes[1:-1]), Frame(_mode_rates(modes, opts.dt))
        else:
            rotation, mode_rate = Frame(self.fixed_frame), None
        return PicardFrame(times, ctx.n_u, lam, rotation, cumlam,
                           np.asarray(ctx.gamma(times), dtype=float), g_path, forcing,
                           mode_rate)

    # -- the integral equation ----------------------------------------------

    def remainder_field(self, z, frame, work):
        """Nonlinear remainder in rotated coordinates at every grid time,
        written into the first len(z) rows of work.g and returned.

        z has shape (rows, n, M): F-rotated(z, t) = U F(U^T z, t) + Udot U^T z
        with F(y, t) = -grad h(y + g) - gamma Q (y + g) - A(t) y.
        """
        ctx = self.context
        rows = len(z)
        q = work.q[:rows]
        w = frame.rotation.unrotate(z, out=work.w[:rows])
        np.add(w, frame.g_path, out=w)
        grad = ctx.loss.subgradient(w)
        if np.any(ctx.qmat):
            penalty = np.matmul(w, ctx.qmat, out=q)
            np.multiply(frame.gamma_vals[:, None], penalty, out=penalty)
            drive = np.negative(grad, out=w)
            np.subtract(drive, penalty, out=drive)
        else:
            # gamma Q (y + g) vanishes with Q
            drive = np.negative(grad, out=w)
        f_rot = frame.rotation.rotate(drive, out=work.g[:rows])
        # U A U^T z is diagonal in the rotated frame: just lambda * z
        np.subtract(f_rot, np.multiply(frame.lambdas, z, out=q), out=f_rot)
        if frame.mode_rate is not None:
            np.add(f_rot, frame.mode_rate.rotate(z, out=q), out=f_rot)
        return f_rot

    def _apply_integral_operator(self, u, frame, work, out):
        """One substitution into the right-hand side of the integral equation
        on the first len(u) rows of the workspace, written into out; returns
        the remainder field minus the forcing.

        Each block runs the exponential-trapezoid recursion x <- e^{a_i} x +
        h (near phi1 - (near - far) phi_tilde), near being the field at the
        end the step moves to. The stable integral runs forward from zero and
        adds the propagated initial condition; the unstable tail integral runs
        backward from the truncated grid end and is negated.
        """
        g_all = self.remainder_field(u, frame, work)
        np.subtract(g_all, frame.forcing, out=g_all)
        for cols, (phi1, phi_tilde), scan in work.blocks:
            g = g_all[:, :, cols]
            near, far = (g[:, :-1], g[:, 1:]) if scan.reverse else (g[:, 1:], g[:, :-1])
            x = _view(work.scan, scan.buffer_shape(len(u)))
            inc = scan.increments(x)
            dg = np.subtract(near, far, out=_view(work.diff, inc.shape))
            np.multiply(near, phi1, out=inc)
            np.subtract(inc, np.multiply(dg, phi_tilde, out=dg), out=inc)
            np.multiply(self.picard.dt, inc, out=inc)
            if scan.reverse:
                np.negative(scan.run(x, work.diff), out=out[:, :, cols])
            else:
                np.add(work.start[: len(u)], scan.run(x, work.diff), out=out[:, :, cols])
        return g_all

    def _iterate(self, t0, a_s):
        """Fixed-point iteration of the manifold integral equation from t0,
        with the tail check; a_s is 2-D, one stable initial condition per row.

        Each row stops on its own: once its change is below tol it keeps that
        iterate, and the growth check and the tail bound look at each row's
        own iterations, so a row's bits do not depend on the other rows. The
        rows still converging are kept as a leading block of the workspace:
        a row that converges moves behind them with its final iterate, in
        both iterate buffers, and each substitution runs on that block alone.

        Returns the frame, the workspace, the converged iterate and the other
        iterate buffer (spare), both with their rows in workspace order, the
        workspace position of each input row, the largest row change per
        iteration (a converged row counts 0) and the largest row tail bound.
        Raises ContractionError when a row's iterates diverge and
        HorizonError when a row's certified truncation error exceeds
        TAIL_TOL.
        """
        opts = self.picard
        if a_s.shape[1] != self.context.n_s:
            raise ValueError(f"a_s must have {self.context.n_s} stable components")
        if not len(a_s):
            raise ValueError("a_s must have at least one row")
        if np.max(np.linalg.norm(a_s, axis=1)) > self.radius / 3.0 + 1e-12:
            raise ContractionError(
                "stable initial condition outside the contraction radius (r/3)")
        frame = self.frame(t0)
        work = _PicardWork(frame, a_s)
        u, new = work.iterates
        u[:, :, : frame.n_u] = 0.0
        u[:, :, frame.n_u:] = work.start

        deltas = []
        rows = np.arange(len(a_s))      # the input row at each position
        live = len(a_s)                 # positions [:live] are still iterating
        grow = np.zeros(live, dtype=int)
        last = np.full(live, np.inf)
        limit = 1e6 * (1.0 + np.max(np.abs(a_s), axis=1))
        g_tail = 0.0
        for _ in range(PICARD_MAX_ITERS):
            g_all = self._apply_integral_operator(u[:live], frame, work, new[:live])
            change = work.row_changes(new[:live], u[:live])
            deltas.append(float(np.max(change)))
            u, new = new, u
            done = change < opts.tol
            # a row's tail bound uses its last iteration's field
            g_tail = max(g_tail, float(np.max(
                np.abs(g_all[done, opts.horizon_steps:, : frame.n_u]), initial=0.0)))
            going = ~done
            if not going.any():
                break
            grew = going & (change > last)
            grow = np.where(grew, grow + 1, 0)
            if np.any(grow >= 3) or np.any(grew & (change > limit)):
                raise ContractionError(
                    "integral-equation iterates stopped contracting; "
                    "shrink the initial condition or the radius")
            last = change
            if done.any():
                # the going rows first, then the converged ones, into both
                # buffers; take's "clip" mode (the indices are in range)
                # writes into out without a buffered copy
                order = np.concatenate([np.flatnonzero(going), np.flatnonzero(done)])
                np.take(u[:live], order, axis=0, out=new[:live], mode="clip")
                u, new = new, u
                start = work.start[:live]
                np.copyto(start, np.take(start, order, axis=0, mode="clip",
                                         out=_view(work.q.reshape(-1), start.shape)))
                rows[:live] = rows[order]
                grow, last, limit = grow[going], last[going], limit[going]
                live = len(grow)
                new[live: len(order)] = u[live: len(order)]
        else:
            raise ContractionError(
                f"no convergence to {opts.tol:g} within {PICARD_MAX_ITERS} iterations")

        tail_est = 0.0
        if frame.n_u:
            sigma_floor = float(np.min(frame.lambdas[:, : frame.n_u]))
            tail_est = g_tail / sigma_floor * float(np.exp(-sigma_floor * opts.tail))
        if tail_est > TAIL_TOL:
            raise HorizonError(
                f"truncated-tail bound {tail_est:.2e} exceeds the tolerance; "
                "extend the tail window")
        return frame, work, u, new, np.argsort(rows), np.array(deltas), tail_est

    def picard_solve(self, t0, a_s):
        """Fixed-point iteration of the manifold integral equation, plus one
        extra substitution, on every row, that measures the residual.

        a_s is one stable-block initial condition per row, each within a third
        of the validity radius. Raises ContractionError when iterates diverge
        and HorizonError when the certified truncation error exceeds tol.
        Every iteration runs in the thread's shared workspace
        (`_shared_buffer`); the solution's arrays are copies of it.
        """
        a_s = np.atleast_2d(np.asarray(a_s, dtype=float))
        frame, work, u, spare, position, deltas, tail_est = self._iterate(t0, a_s)
        self._apply_integral_operator(u, frame, work, spare)
        residual = float(np.max(work.row_changes(spare, u)))
        end = self.picard.horizon_steps + 1
        return PicardSolution(frame.times[:end], u[position, :end, :], frame.n_u, deltas,
                              residual, tail_est)

    def psi(self, t0, z_s):
        """Graph map of the manifold: unstable components over the stable
        block, (rows, n_u). The same bits as picard_solve(t0, z_s).psi,
        without the residual's extra substitution."""
        z_s = np.atleast_2d(np.asarray(z_s, dtype=float))
        if self.psi_is_zero or not len(z_s):
            return np.zeros((len(z_s), self.context.n_u))
        _, _, u, _, position, _, _ = self._iterate(t0, z_s)
        return u[position, 0, : self.context.n_u]

    # -- the certified region -------------------------------------------------

    def certified(self, z):
        """Per row of z (rotated coordinates; rows along every leading axis):
        True where psi is certified, inside the validity ball |z| <= r with
        the stable block inside the contraction radius |z_s| <= r/3 that
        picard_solve requires."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        norm = row_norms(z)
        ok = norm <= self.radius
        # |z_s| <= |z|, so only rows with r/3 < |z| <= r need the second norm
        check = ok & (norm > self.radius / 3.0)
        if np.any(check):
            ok[check] = row_norms(z[check, self.context.n_u:]) <= self.radius / 3.0
        return ok

    def distance(self, z, t):
        """Per row of z (rotated coordinates): the distance to the manifold,
        |z_u - psi(t, z_s)|."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        n_u = self.context.n_u
        return np.linalg.norm(z[:, :n_u] - self.psi(t, z[:, n_u:]), axis=1)
