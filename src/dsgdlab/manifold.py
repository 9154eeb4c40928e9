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
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractionError,
    DegenerateJacobianError,
    EigvecContinuityError,
    HorizonError,
    NewtonError,
    PartitionError,
    RegularityError,
)
from .graphs import PenaltyMatrix, _fix_eigvec_signs, constraint_rotation

GRAD_TOL = 1e-9
MIN_RESTRICTED_EIG = 1e-6
PARTITION_TOL = 1e-8
MATCH_OVERLAP_FLOOR = 0.7
# An orthogonal matrix's entry above 1/sqrt(2) in absolute value dominates its
# row and its column; the margin absorbs the frames' rounding.
UNIQUE_MATCH_OVERLAP = np.sqrt(0.5) + 1e-9


@dataclass(frozen=True)
class SaddleContext:
    """A critical point of the restricted objective with an invertible
    restricted Hessian, plus the penalty and weight function around it."""

    loss: object
    q: PenaltyMatrix
    gamma: object       # callable t -> gamma_t with .derivative
    saddle: np.ndarray
    rotation: object
    n_u: int
    n_s: int

    @property
    def dim(self):
        return len(self.saddle)

    @property
    def qmat(self):
        return self.q.matrix

    def restricted_hessian(self):
        basis = self.rotation.constraint_basis
        return basis.T @ self.loss.hessian(self.saddle) @ basis


def saddle_context(loss, q, gamma, saddle):
    """Validate the critical point and count its unstable directions.

    n_u is the number of unstable directions of the restricted descent flow,
    i.e. negative eigenvalues of the restricted Hessian; the penalty makes
    every off-constraint direction stable for large t.
    """
    saddle = np.asarray(saddle, dtype=float)
    if loss.hessian is None or not loss.is_smooth(2):
        raise ValueError("saddle analysis needs a twice-differentiable loss near the point")
    rotation = constraint_rotation(q)
    grad_c = rotation.constraint_part(loss.subgradient(saddle))
    if np.linalg.norm(grad_c) > GRAD_TOL:
        raise RegularityError(
            f"restricted gradient norm {np.linalg.norm(grad_c):.2e} exceeds {GRAD_TOL:g}")
    basis = rotation.constraint_basis
    hess_c = basis.T @ loss.hessian(saddle) @ basis
    eig_c = np.linalg.eigvalsh(hess_c)
    if np.min(np.abs(eig_c)) <= MIN_RESTRICTED_EIG:
        raise RegularityError(
            f"restricted Hessian eigenvalue {eig_c[np.argmin(np.abs(eig_c))]:.2e} "
            "is too close to zero")
    n_u = int(np.sum(eig_c < 0))
    return SaddleContext(loss, q, gamma, saddle, rotation, n_u, len(saddle) - n_u)


def default_gamma0(context, floor=0.1):
    """Smallest power-of-two penalty at which the penalized Hessian is safely
    nonsingular, found by doubling from 1."""
    gamma = 1.0
    hess = context.loss.hessian(context.saddle)
    for _ in range(60):
        sv = np.abs(np.linalg.eigvalsh(hess + gamma * context.qmat))
        if np.min(sv) > floor:
            return gamma
        gamma *= 2.0
    raise DegenerateJacobianError("no penalty level makes the penalized Hessian nonsingular")


@dataclass(frozen=True)
class PerturbedSaddlePath:
    gamma_grid: np.ndarray
    points: np.ndarray
    arc_length_estimate: float

    def residuals(self, loss, qmat):
        vals = []
        for g, pt in zip(self.gamma_grid, self.points):
            vals.append(np.linalg.norm(loss.subgradient(pt) + g * (qmat @ pt)))
        return np.array(vals)


def _newton_stationary(loss, qmat, gamma, start, tol=GRAD_TOL, max_iter=50):
    x = np.asarray(start, dtype=float).copy()
    for _ in range(max_iter):
        r = loss.subgradient(x) + gamma * (qmat @ x)
        if np.linalg.norm(r) <= tol:
            return x
        jac = loss.hessian(x) + gamma * qmat
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise DegenerateJacobianError(
                f"singular penalized Hessian at gamma={gamma:g}") from exc
        if not np.all(np.isfinite(step)):
            raise NewtonError(f"Newton step not finite at gamma={gamma:g}")
        x = x - step
    raise NewtonError(f"Newton did not reach residual {tol:g} at gamma={gamma:g}")


def solve_perturbed_saddle(context, gamma_grid):
    """Continuation Newton solve of the penalized stationarity condition.

    Warm-starts each penalty level from the previous solution; residuals are
    driven below 1e-9. The arc length estimate is the polygonal length of the
    computed path.
    """
    gamma_grid = np.asarray(gamma_grid, dtype=float)
    if np.any(np.diff(gamma_grid) <= 0):
        raise ValueError("gamma_grid must be increasing")
    pts = []
    guess = context.saddle
    for gamma in gamma_grid:
        guess = _newton_stationary(context.loss, context.qmat, float(gamma), guess)
        pts.append(guess.copy())
    pts = np.array(pts)
    arc = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
    return PerturbedSaddlePath(gamma_grid, pts, arc)


@dataclass(frozen=True)
class SpectralSplit:
    """Eigenframe of the flow linearization at one time, unstable block first.

    Rows of modes are eigenvectors: modes @ a_matrix @ modes.T = diag(lambdas).
    """

    t: float
    a_matrix: np.ndarray
    modes: np.ndarray
    lambdas: np.ndarray
    n_u: int


def _eigh_descending(a):
    w, v = np.linalg.eigh(a)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def _match_to_previous(prev_modes, w, v):
    """Permute and sign-fix eigenvector columns to follow the previous frame.

    The permutation maximizes the summed |overlap| of matched modes. When
    every row's largest |overlap| is above 1/sqrt(2), the rows' argmaxes are
    that assignment, and its only optimum; otherwise it is solved exactly.
    """
    overlap = prev_modes @ v
    size = np.abs(overlap)
    rows = np.arange(len(size))
    perm = np.argmax(size, axis=1)
    if np.min(size[rows, perm]) <= UNIQUE_MATCH_OVERLAP:
        from scipy.optimize import linear_sum_assignment

        assigned, cols = linear_sum_assignment(-size)
        perm[assigned] = cols
    chosen = size[rows, perm]
    if np.min(chosen) < MATCH_OVERLAP_FLOOR:
        raise EigvecContinuityError(
            f"eigenvector tracking overlap dropped to {np.min(chosen):.3f}; "
            "continuity of the eigenframe is ambiguous here")
    signs = np.sign(overlap[rows, perm])
    signs[signs == 0] = 1.0
    return w[perm], (v[:, perm] * signs).T


def linearize(context, t, g_at_t, reference_modes=None):
    """Spectral split of A(t) = -hess h(g_at_t) - gamma_t Q, where g_at_t is
    the path point g(gamma_t).

    Without a reference frame, eigenvalues are sorted descending (unstable
    block leads). Eigenvalues within PARTITION_TOL of zero cannot be assigned
    a side and raise PartitionError.
    """
    gamma_t = float(context.gamma(t))
    a = -context.loss.hessian(g_at_t) - gamma_t * context.qmat
    if reference_modes is None:
        w, v = _eigh_descending(a)
        modes = _fix_eigvec_signs(v).T
    else:
        w_raw, v_raw = np.linalg.eigh(a)
        w, modes = _match_to_previous(reference_modes, w_raw, v_raw)
    if np.min(np.abs(w)) < PARTITION_TOL:
        raise PartitionError(
            f"eigenvalue {w[np.argmin(np.abs(w))]:.2e} at t={t:g} is too close to zero")
    n_u = int(np.sum(w > 0))
    if reference_modes is None and not np.all(np.diff(w) <= 0):
        raise PartitionError("descending eigenvalue ordering failed")
    return SpectralSplit(float(t), a, modes, w, n_u)


@dataclass(frozen=True)
class Frame:
    """Per-time linear maps: the eigenframe U(t) (rows are eigenvectors) or its
    rate Udot U^T. `matrices` is one (M, M) matrix when the frame does not
    move, otherwise one per grid time, (n, M, M).

    rotate(v) = U v and unrotate(v) = U^T v act on the last axis of v. A
    constant frame is one GEMM over all leading axes; a time-varying frame
    takes v of shape (batch, n, M) and is one batched matmul over the grid.
    Both write into `out` when given, a C-contiguous array of v's shape.
    """

    matrices: np.ndarray

    def rotate(self, v, out=None):
        return self._right_multiply(v, self.matrices.swapaxes(-1, -2), out)

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
    dt: float
    n_u: int
    lambdas: np.ndarray        # (n, M), unstable block first
    rotation: Frame            # U(t)
    cumlam: np.ndarray         # (n, M), trapezoid cumulative integral of lambdas
    gamma_vals: np.ndarray
    g_path: np.ndarray         # (n, M)
    forcing: np.ndarray        # (n, M): U(t) g'(gamma_t) gammadot_t
    mode_rate: Frame | None    # Udot U^T; None when the frame does not move
    context: SaddleContext

    @property
    def t0(self):
        return float(self.times[0])

    def index_of(self, t):
        i = int(round((t - self.t0) / self.dt))
        if i < 0 or i >= len(self.times) or abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"t={t:g} is not on the frame grid")
        return i

    def cumlam_at(self, t):
        cols = [np.interp(t, self.times, self.cumlam[:, j])
                for j in range(self.cumlam.shape[1])]
        return np.array(cols)


def evolution_operator(frame, t1, t2, which):
    """Block-diagonal evolution operator exp(int_{t1}^{t2} Lambda_block).

    The stable operator propagates forward (t2 >= t1), the unstable one
    backward (t2 <= t1); both directions are contractions.
    """
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
    expo = frame.cumlam_at(t2) - frame.cumlam_at(t1)
    out = np.zeros((m, m))
    diag = np.zeros(m)
    diag[idx] = np.exp(expo[idx])
    np.fill_diagonal(out, diag)
    return out


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
    returns x, (batch, n, m)."""
    scan = _BlockScan(log_decay, reverse)
    x = np.empty(scan.buffer_shape(inc.shape[0]))
    scan.increments(x)[...] = inc
    return scan.run(x, np.empty(x.size))


class _PicardWork:
    """One Picard solve's buffers and the operator's frame-only coefficients,
    allocated once per solve and reused by every substitution.

    Each substitution writes the remainder field into `g` (with `w` and `q`
    as its scratch) and the new iterate into one of `iterates`. The stable and
    unstable blocks share the padded scan buffer `scan` and the difference
    buffer `diff`, which is also the scan's carry scratch.
    """

    def __init__(self, frame, batch):
        n, m = frame.lambdas.shape
        n_u = frame.n_u
        a_coef = frame.cumlam[1:] - frame.cumlam[:-1]          # (n-1, M)
        a_st, a_un = a_coef[:, n_u:], a_coef[:, :n_u]
        self.prop = np.exp(frame.cumlam[:, n_u:] - frame.cumlam[0, n_u:])
        self.phi_s = _phi1(a_st), _phi_tilde(a_st)
        self.phi_u = _phi1(-a_un), _phi_tilde(-a_un)
        self.stable = _BlockScan(a_st)
        self.unstable = _BlockScan(-a_un, reverse=True)
        self.iterates = np.zeros((batch, n, m)), np.zeros((batch, n, m))
        self.g, self.w, self.q = np.empty((3, batch, n, m))
        self.scan = np.empty(max(math.prod(s.buffer_shape(batch))
                                 for s in (self.stable, self.unstable)))
        self.diff = np.empty(batch * (n - 1) * max(n_u, m - n_u))

    def sup_change(self, new, old):
        """max |new - old|, computed in the scratch buffer w."""
        change = np.subtract(new, old, out=self.w)
        return float(np.max(np.abs(change, out=change)))


@dataclass(frozen=True)
class PicardOptions:
    horizon: float = 12.0
    dt: float = 0.01
    tail: float = 6.0
    tol: float = 1e-9           # fixed-point sup-norm tolerance
    tail_tol: float = 1e-6      # certified truncated-tail budget
    max_iters: int = 60


@dataclass(frozen=True)
class PicardSolution:
    """Converged fixed point of the manifold integral equation on a grid."""

    times: np.ndarray
    u: np.ndarray              # (batch, n, M)
    a_s: np.ndarray            # (batch, n_s)
    n_u: int
    deltas: np.ndarray         # sup-norm change per iteration
    residual: float            # change of one extra substitution
    tail_estimate: float
    horizon_index: int

    @property
    def iterations(self):
        return len(self.deltas)

    @property
    def psi(self):
        """Unstable components at the initial time, one row per a_s."""
        return self.u[:, 0, : self.n_u]

    def contraction_ratios(self):
        d = self.deltas[self.deltas > 0]
        return d[1:] / d[:-1] if len(d) > 1 else np.array([])


class ManifoldModel:
    """Precomputed manifold data for one saddle: reference eigenframe track,
    cached integral-equation frames, and the coordinate change
    z = U(t) (x - g(gamma_t)). Every path point and eigenframe comes from one
    tracker, `_track`."""

    def __init__(self, context, t_start, t_end, picard=PicardOptions(),
                 radius=0.3, ref_points=256):
        if t_end <= t_start:
            raise ValueError("t_end must exceed t_start")
        self.context = context
        self.t_start = float(t_start)
        self.t_end = float(t_end)
        self.picard = picard
        self.radius = float(radius)
        self._frames = {}
        self.fixed_frame = None
        self._build_reference(ref_points)
        self._detect_structure()

    # -- the tracked path ----------------------------------------------------

    def _track(self, times, g, modes):
        """(path points g(gamma_t), eigenvalues, eigenframes U(t), forcing
        U g'(gamma_t) gammadot_t) at `times`, each time continued from the one
        before: Newton warm-started at the previous point, eigenvectors
        matched to the previous frame. g and modes are the point and frame
        the first time continues from.

        A fixed frame (g = saddle, constant U) needs no tracking: there the
        eigenvalues are affine in gamma and the forcing is zero.
        """
        ctx = self.context
        times = np.asarray(times, dtype=float)
        n, m = len(times), ctx.dim
        gammas = np.asarray(ctx.gamma(times), dtype=float)
        if self.fixed_frame is not None:
            u = self.fixed_frame.matrices
            base = np.diag(u @ (-ctx.loss.hessian(ctx.saddle)) @ u.T)
            qdiag = np.diag(u @ ctx.qmat @ u.T)
            return (np.tile(ctx.saddle, (n, 1)),
                    base[None, :] - gammas[:, None] * qdiag[None, :],
                    np.broadcast_to(u, (n, m, m)), np.zeros((n, m)))
        gdot = ctx.gamma.derivative(times)
        points, lambdas, frames, forcing = (np.empty((n, m)), np.empty((n, m)),
                                            np.empty((n, m, m)), np.empty((n, m)))
        for i, t in enumerate(times):
            g = _newton_stationary(ctx.loss, ctx.qmat, gammas[i], g)
            split = linearize(ctx, t, g, reference_modes=modes)
            modes = split.modes
            points[i], lambdas[i], frames[i] = g, split.lambdas, modes
            jac = ctx.loss.hessian(g) + gammas[i] * ctx.qmat
            g_prime = -np.linalg.solve(jac, ctx.qmat @ g)
            forcing[i] = modes @ (g_prime * float(gdot[i]))
        return points, lambdas, frames, forcing

    def _build_reference(self, ref_points):
        ctx = self.context
        times = np.linspace(self.t_start, self.t_end, ref_points)
        # continuation runs backward from the largest penalty, where the path
        # is closest to the saddle
        g_end = _newton_stationary(ctx.loss, ctx.qmat, float(ctx.gamma(times[-1])),
                                   ctx.saddle)
        anchor = linearize(ctx, times[-1], g_end)
        if anchor.n_u != ctx.n_u:
            raise PartitionError(
                f"anchor split found {anchor.n_u} unstable directions, expected {ctx.n_u}")
        points, lambdas, modes, _ = self._track(times[::-1], g_end, anchor.modes)
        if np.any(lambdas[:, : ctx.n_u] <= 0) or np.any(lambdas[:, ctx.n_u:] >= 0):
            raise PartitionError(
                "sign pattern of the tracked split is not stable over the model span; "
                "raise t_start")
        self.ref_times = times
        self.ref_g = points[::-1]
        self.ref_modes = modes[::-1]

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
        self.fixed_frame = Frame(self.ref_modes[-1])
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

    def _reference_start(self, t):
        """Reference point and frame to continue the path from toward t: the
        first reference time at or after t, clipped to the track."""
        i = int(np.clip(np.searchsorted(self.ref_times, t), 1, len(self.ref_times) - 1))
        return self.ref_g[i], self.ref_modes[i]

    # -- coordinate machinery ----------------------------------------------

    def _frame_at(self, t):
        """Eigenframe U(t) and path point g(gamma_t) at one time."""
        # returns before any gamma evaluation: a drift campaign asks once per step
        if self.fixed_frame is not None:
            return self.fixed_frame, self.context.saddle
        g, _, modes, _ = self._track([t], *self._reference_start(t))
        return Frame(modes[0]), g[0]

    def coordinate_change(self, x, t):
        """z = U(t) (x - g(gamma_t)); batched over leading axes of x."""
        frame, g_t = self._frame_at(t)
        return frame.rotate(np.asarray(x, dtype=float) - g_t)

    def coordinate_change_inverse(self, z, t):
        frame, g_t = self._frame_at(t)
        return frame.unrotate(z) + g_t

    def drive_field(self, x, t):
        """Right-hand side of the flow, -grad h(x) - gamma_t Q x."""
        x = np.asarray(x, dtype=float)
        return -self.context.loss.subgradient(x) - float(self.context.gamma(t)) \
            * (x @ self.context.qmat)

    def local_linearization(self, t, fd_step=1e-4):
        """(lambdas, modes, mode rate, forcing, path point) at a single time.
        The mode rate is a central difference of the frames at t +- fd_step,
        both continued from the frame at t."""
        g, lam, modes, forcing = (row[0] for row in
                                  self._track([t], *self._reference_start(t)))
        _, _, plus, _ = self._track([t + fd_step], g, modes)
        _, _, minus, _ = self._track([t - fd_step], g, modes)
        mode_rate = ((plus[0] - minus[0]) / (2.0 * fd_step)) @ modes.T
        return lam, modes, mode_rate, forcing, g

    # -- frames --------------------------------------------------------------

    def frame(self, t0):
        key = round(float(t0), 9)
        if key not in self._frames:
            self._frames[key] = self._build_frame(float(t0))
        return self._frames[key]

    def _build_frame(self, t0):
        ctx = self.context
        opts = self.picard
        if t0 < self.t_start - 1e-9:
            raise ValueError(f"t0={t0:g} is before the model span")
        n = int(round((opts.horizon + opts.tail) / opts.dt)) + 1
        times = t0 + opts.dt * np.arange(n)
        if times[-1] > self.t_end + 1e-9:
            raise ValueError("frame grid exceeds the model span; extend t_end")
        g_path, lam, modes, forcing = self._track(times, *self._reference_start(t0))
        if np.any(lam[:, : ctx.n_u] <= 0) or np.any(lam[:, ctx.n_u:] >= 0):
            raise PartitionError(
                f"split sign pattern unstable inside the frame starting at t0={t0:g}")
        cumlam = np.zeros((n, ctx.dim))
        cumlam[1:] = np.cumsum(0.5 * (lam[1:] + lam[:-1]) * opts.dt, axis=0)
        rotation, mode_rate = Frame(modes[0]), None
        if np.any(modes != modes[0]):
            rotation = Frame(modes)
            mode_rate = Frame(np.gradient(modes, opts.dt, axis=0) @ modes.swapaxes(1, 2))
        return PicardFrame(times, opts.dt, ctx.n_u, lam, rotation, cumlam,
                           np.asarray(ctx.gamma(times), dtype=float), g_path, forcing,
                           mode_rate, ctx)

    # -- the integral equation ----------------------------------------------

    def remainder_field(self, z, frame, work):
        """Nonlinear remainder in rotated coordinates at every grid time,
        written into work.g and returned.

        z has shape (batch, n, M): F-rotated(z, t) = U F(U^T z, t) + Udot U^T z
        with F(y, t) = -grad h(y + g) - gamma Q (y + g) - A(t) y.
        """
        ctx = frame.context
        w = frame.rotation.unrotate(z, out=work.w)
        np.add(w, frame.g_path, out=w)
        grad = ctx.loss.subgradient(w)
        penalty = np.matmul(w, ctx.qmat, out=work.q)
        np.multiply(frame.gamma_vals[:, None], penalty, out=penalty)
        drive = np.negative(grad, out=w)
        np.subtract(drive, penalty, out=drive)
        f_rot = frame.rotation.rotate(drive, out=work.g)
        # U A U^T z is diagonal in the rotated frame: just lambda * z
        np.subtract(f_rot, np.multiply(frame.lambdas, z, out=work.q), out=f_rot)
        if frame.mode_rate is not None:
            np.add(f_rot, frame.mode_rate.rotate(z, out=work.q), out=f_rot)
        return f_rot

    def _apply_integral_operator(self, u, a_s, frame, work, out):
        """One substitution into the right-hand side of the integral equation,
        written into out; returns the remainder field minus the forcing."""
        n_u = frame.n_u
        h = frame.dt
        g_all = self.remainder_field(u, frame, work)
        np.subtract(g_all, frame.forcing, out=g_all)

        # stable block: forward propagation of the initial condition plus the
        # exponential-trapezoid integral recursion j_{i+1} = e^{a_i} j_i + inc_i
        gs = g_all[:, :, n_u:]
        phi1, phi_tilde = work.phi_s
        x = _view(work.scan, work.stable.buffer_shape(len(u)))
        inc = work.stable.increments(x)
        dg = np.subtract(gs[:, 1:, :], gs[:, :-1, :], out=_view(work.diff, inc.shape))
        np.multiply(gs[:, 1:, :], phi1, out=inc)
        np.subtract(inc, np.multiply(dg, phi_tilde, out=dg), out=inc)
        np.multiply(h, inc, out=inc)
        new_s = np.multiply(work.prop, a_s[:, None, :], out=out[:, :, n_u:])
        np.add(new_s, work.stable.run(x, work.diff), out=new_s)

        # unstable block: backward tail recursion k_i = inc_i + e^{-a_i} k_{i+1},
        # truncated at the grid end
        if n_u:
            gu = g_all[:, :, :n_u]
            phi1, phi_tilde = work.phi_u
            x = _view(work.scan, work.unstable.buffer_shape(len(u)))
            inc = work.unstable.increments(x)
            dg = np.subtract(gu[:, 1:, :], gu[:, :-1, :], out=_view(work.diff, inc.shape))
            np.multiply(gu[:, :-1, :], phi1, out=inc)
            np.add(inc, np.multiply(dg, phi_tilde, out=dg), out=inc)
            np.multiply(h, inc, out=inc)
            np.negative(work.unstable.run(x, work.diff), out=out[:, :, :n_u])
        return g_all

    def picard_solve(self, t0, a_s):
        """Fixed-point iteration of the manifold integral equation.

        a_s is one stable-block initial condition per row, each within a third
        of the validity radius. Raises ContractionError when iterates diverge
        and HorizonError when the certified truncation error exceeds tol.
        Every iteration runs in one workspace allocated here.
        """
        opts = self.picard
        ctx = self.context
        a_s = np.atleast_2d(np.asarray(a_s, dtype=float))
        if a_s.shape[1] != ctx.n_s:
            raise ValueError(f"a_s must have {ctx.n_s} stable components")
        if np.max(np.linalg.norm(a_s, axis=1)) > self.radius / 3.0 + 1e-12:
            raise ContractionError(
                "stable initial condition outside the contraction radius (r/3)")
        frame = self.frame(t0)
        work = _PicardWork(frame, a_s.shape[0])
        u, new = work.iterates
        np.multiply(work.prop, a_s[:, None, :], out=u[:, :, frame.n_u:])

        deltas = []
        grow = 0
        for _ in range(opts.max_iters):
            g_all = self._apply_integral_operator(u, a_s, frame, work, new)
            delta = work.sup_change(new, u)
            deltas.append(delta)
            u, new = new, u
            if delta < opts.tol:
                break
            if len(deltas) > 1 and delta > deltas[-2]:
                grow += 1
                if grow >= 3 or delta > 1e6 * (1.0 + float(np.max(np.abs(a_s)))):
                    raise ContractionError(
                        "integral-equation iterates stopped contracting; "
                        "shrink the initial condition or the radius")
            else:
                grow = 0
        else:
            raise ContractionError(
                f"no convergence to {opts.tol:g} within {opts.max_iters} iterations")

        # the tail bound uses the last iteration's field, which the
        # resubstitution below overwrites
        tail_start = frame.index_of(round(frame.t0 + opts.horizon, 9))
        sigma_floor = float(np.min(frame.lambdas[:, : frame.n_u])) if frame.n_u else np.inf
        g_tail_max = float(np.max(np.abs(g_all[:, tail_start:, : frame.n_u]))) \
            if frame.n_u else 0.0
        self._apply_integral_operator(u, a_s, frame, work, new)
        residual = work.sup_change(new, u)

        tail_est = g_tail_max / sigma_floor * float(np.exp(-sigma_floor * opts.tail)) \
            if frame.n_u else 0.0
        if tail_est > opts.tail_tol:
            raise HorizonError(
                f"truncated-tail bound {tail_est:.2e} exceeds the tolerance; "
                "extend the tail window")
        return PicardSolution(frame.times[: tail_start + 1], u[:, : tail_start + 1, :],
                              a_s, frame.n_u, np.array(deltas), residual, tail_est,
                              tail_start)

    def psi(self, t0, z_s):
        """Graph map of the manifold: unstable components over the stable block."""
        z_s = np.atleast_2d(np.asarray(z_s, dtype=float))
        if self.psi_is_zero:
            return np.zeros((z_s.shape[0], self.context.n_u))
        return self.picard_solve(t0, z_s).psi

    # -- the certified region -------------------------------------------------

    def certified(self, z):
        """Per row of z (rotated coordinates): True where psi is certified,
        inside the validity ball |z| <= r with the stable block inside the
        contraction radius |z_s| <= r/3 that picard_solve requires."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        norm = np.linalg.norm(z, axis=1)
        ok = norm <= self.radius
        # |z_s| <= |z|, so only rows with r/3 < |z| <= r need the second norm
        check = ok & (norm > self.radius / 3.0)
        if np.any(check):
            ok[check] = np.linalg.norm(z[check, self.context.n_u:], axis=1) \
                <= self.radius / 3.0
        return ok

    def distance(self, z, t):
        """Per row of z (rotated coordinates): the distance to the manifold,
        |z_u - psi(t, z_s)|."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        n_u = self.context.n_u
        return np.linalg.norm(z[:, :n_u] - self.psi(t, z[:, n_u:]), axis=1)
