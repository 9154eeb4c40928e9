"""Discrete stochastic recursions: the general penalized form and the
agentwise consensus form.

The general update is
    x(k+1) = x(k) - alpha_k (v(k) + gamma_k Q x(k) + xi(k+1)),
with v(k) a subgradient selection; the agentwise form
    x_n(k+1) = x_n(k) + beta_k sum_{l in neighbors} (x_l - x_n)
               - alpha_k (v_n(k) + xi_n(k+1))
is its special case with Q = L kron I_d and beta_k = alpha_k gamma_k. Noise is
drawn from one sub-stream per agent, spawned from the master seed, so stacked
and agentwise runs can consume identical realizations. `run_batch` is the one
loop that iterates the recursion; `run` and `run_agentwise` are its one-seed
views, and `general_step`/`agentwise_step` are the single-step references.
It steps each chunk once and serves it to one observer call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DivergedError
from .graphs import consensus_penalty, constraint_rotation, laplacian

DIVERGENCE_CEILING = 1e12


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean per-step noise: none, gaussian(sigma), or uniform-sphere(r).

    restrict_to_constraint projects each stacked draw onto nullspace(Q),
    exciting only constraint directions.
    """

    kind: str = "none"
    scale: float = 0.0
    seed: int = 0
    restrict_to_constraint: bool = False

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "uniform-sphere"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind != "none" and self.scale <= 0:
            raise ValueError("gaussian and uniform-sphere noise need a positive scale")

    def start(self, n_agents, agent_dim, rotation=None, seed=None):
        """A stream for `seed` (default: the model's seed), or for each seed
        of a sequence of row seeds."""
        projector = None
        if self.restrict_to_constraint:
            if rotation is None:
                raise ValueError("restrict_to_constraint needs the constraint rotation")
            basis = rotation.constraint_basis
            projector = basis @ basis.T
        return NoiseStream(self.kind, self.scale,
                           self.seed if seed is None else seed,
                           n_agents, agent_dim, projector)


class NoiseStream:
    """Stateful noise source with one spawned generator per (seed, agent).

    `seeds` is one seed, whose events have shape (n_agents, agent_dim), or a
    sequence of row seeds, whose events have shape (rows, n_agents,
    agent_dim); row r draws exactly what a stream of seeds[r] alone draws.
    """

    def __init__(self, kind, scale, seeds, n_agents, agent_dim, projector=None):
        self.kind = kind
        self.scale = scale
        self.rows = None if np.ndim(seeds) == 0 else len(seeds)
        self.n_agents = n_agents
        self.agent_dim = agent_dim
        self.projector = projector
        if kind == "none":
            self._gens = None
        else:
            self._gens = [np.random.default_rng(child)
                          for seed in np.atleast_1d(seeds)
                          for child in np.random.SeedSequence(int(seed)).spawn(n_agents)]

    def draw(self):
        """One noise event."""
        return self.draw_chunk(1)[0]

    def draw_chunk(self, count):
        """count consecutive events, shape (count,) + the event shape.

        Each (seed, agent) generator fills its (count, agent_dim) block of one
        contiguous (rows, n_agents, count, agent_dim) buffer, which is scaled
        once and returned as a strided view. Chunked draws consume each
        generator exactly as repeated single draws do, so chunking never
        changes realizations.
        """
        rows = self.rows or 1
        if self.kind == "none":
            out = np.zeros((count, rows, self.n_agents, self.agent_dim))
            return out if self.rows else out[:, 0]
        out = np.empty((rows, self.n_agents, count, self.agent_dim))
        for gen, block in zip(self._gens, out.reshape(-1, count, self.agent_dim)):
            gen.standard_normal(out=block)
        if self.kind == "uniform-sphere":
            norms = np.linalg.norm(out, axis=-1, keepdims=True)
            norms[norms == 0.0] = 1.0
            out *= self.scale
            out /= norms
        else:
            out *= self.scale
        if self.projector is None:
            out = out.transpose(2, 0, 1, 3)
        else:
            # a product summed row by row, so a draw's projection does not
            # depend on the chunk size (a BLAS product's summation order can)
            flat = out.transpose(0, 2, 1, 3).reshape(rows, count, -1)
            for block in flat:
                block[...] = (block[:, :, None] * self.projector.T).sum(axis=1)
            out = flat.reshape(rows, count, self.n_agents,
                               self.agent_dim).transpose(1, 0, 2, 3)
        return out if self.rows else out[:, 0]


def row_norms(x):
    """Euclidean norms over the last axis of x, bit-equal to
    `np.linalg.norm(x, axis=-1)`.

    Below 8 columns numpy's sum runs left to right, so in-place column adds
    give the same bits at a fraction of the cost; from 8 on its pairwise
    order differs, and the norm is numpy's own.
    """
    x = np.asarray(x, dtype=float)
    if not 0 < x.shape[-1] < 8:
        return np.linalg.norm(x, axis=-1)
    out = np.square(x[..., 0], out=np.empty(x.shape[:-1]))
    term = np.empty_like(out)
    for j in range(1, x.shape[-1]):
        out += np.square(x[..., j], out=term)
    return np.sqrt(out, out=out)


def general_step(x, k, loss, q, schedule, noise):
    """One update of the penalized recursion; consumes one noise event."""
    if k < 1:
        raise ValueError("step index starts at 1")
    x = np.asarray(x, dtype=float)
    qm = q.matrix
    if x.shape[-1] != qm.shape[0] or loss.dim != qm.shape[0]:
        raise ValueError("dimension mismatch between state, loss, and penalty")
    v = loss.subgradient(x)
    xi = noise.draw().ravel()
    alpha_k = schedule.alpha(k)
    new = x - alpha_k * (v + schedule.gamma(k) * (qm @ x) + xi)
    if not np.all(np.isfinite(new)):
        raise DivergedError(k)
    return new


def agentwise_step(states, k, losses, graph, schedule, noise):
    """One agentwise update; each agent mixes neighbor states and descends its
    private loss. Equals the stacked general step with Q = L kron I_d."""
    if k < 1:
        raise ValueError("step index starts at 1")
    states = np.asarray(states, dtype=float)
    grads = np.stack([c.subgradient(states[n]) for n, c in enumerate(losses.components)])
    xi = noise.draw()
    # sum over neighbors of (x_l - x_n) is exactly -(L @ states) row-wise
    new = (states - schedule.beta(k) * (laplacian(graph) @ states)
           - schedule.alpha(k) * (grads + xi))
    if not np.all(np.isfinite(new)):
        raise DivergedError(k)
    return new


@dataclass
class Trajectory:
    """Checkpointed record of a run: per-row step count, elapsed time, and metrics."""

    steps: np.ndarray
    zeta: np.ndarray
    consensus_error: np.ndarray
    grad_norm: np.ndarray
    state_norm: np.ndarray
    final_state: np.ndarray
    sup_state_norm: float
    mode: str = "general"
    noise_kind: str = "none"
    n_agents: int = 1
    agent_dim: int = 0
    states: Optional[np.ndarray] = None
    noise_means: Optional[np.ndarray] = None

    def __len__(self):
        return len(self.steps)


def _record_points(steps, record):
    if record == "geometric":
        pts = {0, steps}
        p = 1
        while p < steps:
            pts.add(p)
            p *= 2
        return sorted(pts)
    interval = int(record)
    if interval < 1:
        raise ValueError("record interval must be >= 1")
    pts = set(range(0, steps + 1, interval))
    pts.add(steps)
    return sorted(pts)


def run(initial, steps, loss, q, schedule, noise=NoiseModel(), *, record="geometric",
        record_state=False, record_noise=False, ceiling=DIVERGENCE_CEILING,
        rotation=None, n_agents=1):
    """Iterate the general recursion, recording metrics at checkpoints.

    The one-row view of `run_batch` whose only seed is the noise seed, so it is
    deterministic given that seed. n_agents fixes the noise sub-stream layout:
    with n_agents = N the run consumes the same realizations as the agentwise
    form on N agents. Raises DivergedError past the ceiling.
    """
    x0 = np.asarray(initial, dtype=float)
    m = len(x0)
    if rotation is None:
        rotation = constraint_rotation(q)
    states, observer = None, None
    if record_state:
        wanted = set(_record_points(steps, record))
        states = [x0.copy()]

        @per_step
        def observer(k, zeta, x, active):
            if k in wanted:
                states.append(x[0].copy())

    batch = run_batch(x0, steps, loss, q, schedule, noise, [noise.seed], record=record,
                      ceiling=ceiling, rotation=rotation, observer=observer,
                      n_agents=n_agents)
    if batch.diverged_at[0] >= 0:
        raise DivergedError(int(batch.diverged_at[0]))
    noise_means = None
    if record_noise:
        # a fresh stream for the same seed replays the realizations the run drew
        stream = noise.start(n_agents, m // n_agents, rotation)
        noise_means = stream.draw_chunk(steps).mean(axis=1)
    return Trajectory(batch.steps, batch.zeta, batch.consensus_error[0],
                      batch.grad_norm[0], batch.state_norm[0], batch.final_states[0],
                      float(batch.sup_state_norm[0]), "general", noise.kind, n_agents,
                      m // n_agents, None if states is None else np.array(states),
                      noise_means)


def run_agentwise(initial_states, steps, losses, graph, schedule, noise=NoiseModel(),
                  *, record="geometric", record_state=False, record_noise=False,
                  ceiling=DIVERGENCE_CEILING):
    """Iterate the agentwise recursion on a communication graph: `run` with
    Q = L kron I_d and one noise sub-stream per agent."""
    states = np.asarray(initial_states, dtype=float)
    n, d = states.shape
    if n != losses.n_agents or d != losses.agent_dim:
        raise ValueError("initial states disagree with the loss stack")
    traj = run(states.ravel(), steps, losses.assembled,
               consensus_penalty(laplacian(graph), d), schedule, noise, record=record,
               record_state=record_state, record_noise=record_noise, ceiling=ceiling,
               n_agents=n)
    return replace(traj, mode="agentwise")


@dataclass(frozen=True)
class MeanResidualReport:
    """Exact mean-recursion residuals (zero to round-off) and the gap between
    the averaged agent gradients and the gradient at the network mean."""

    identity_residual: np.ndarray
    approximation_gap: np.ndarray


def network_mean_residual(traj, losses, schedule):
    """Check that the network mean follows the averaged-gradient recursion.

    Needs an agentwise trajectory recorded at every step with states and noise
    means; losses must be continuously differentiable so the gradient at the
    mean is well defined.
    """
    if traj.mode != "agentwise":
        raise ValueError("need an agentwise trajectory")
    if traj.states is None or traj.noise_means is None:
        raise ValueError("trajectory must record states and noise at every step")
    if not all(c.is_smooth(1) for c in losses.components):
        raise ValueError("mean-recursion comparison needs smooth losses")
    k_count = len(traj.states) - 1
    if not np.array_equal(traj.steps, np.arange(k_count + 1)):
        raise ValueError("trajectory must be recorded at every step")

    n, d = losses.n_agents, losses.agent_dim
    blocks = traj.states.reshape(-1, n, d)
    means = blocks.mean(axis=1)
    identity = np.empty(k_count)
    gap = np.empty(k_count)
    for k in range(1, k_count + 1):
        prev = blocks[k - 1]
        avg_grad = np.stack([c.subgradient(prev[i])
                             for i, c in enumerate(losses.components)]).mean(axis=0)
        predicted = means[k - 1] - schedule.alpha(k) * (avg_grad + traj.noise_means[k - 1])
        identity[k - 1] = np.linalg.norm(means[k] - predicted)
        grad_at_mean = np.stack([c.subgradient(means[k - 1])
                                 for c in losses.components]).mean(axis=0)
        gap[k - 1] = np.linalg.norm(avg_grad - grad_at_mean)
    return MeanResidualReport(identity, gap)


@dataclass(frozen=True)
class BoundednessReport:
    sup_norm: float
    within_bound: bool


def boundedness_probe(traj, ceiling=1e3):
    """Did the whole run stay inside the configured norm ball?"""
    return BoundednessReport(traj.sup_state_norm, bool(traj.sup_state_norm <= ceiling))


@dataclass(frozen=True)
class KarRateReport:
    converges: bool
    scaled_limit: float
    z_final: float


def rate_check_kar(a1, delta1, a2, delta2, delta0, z0, steps):
    """Iterate z_{k+1} = (1 - r1(k)) z_k + r2(k) and report the rescaled tail.

    r1(k) = a1 (k+1)^-delta1 (clipped at 1), r2(k) = a2 (k+1)^-delta2; the
    rescaling (k+1)^delta0 z_k should vanish whenever delta0 < delta2 - delta1.
    """
    if a1 <= 0:
        raise ValueError("a1 must be positive")
    if a2 < 0:
        raise ValueError("a2 must be nonnegative")
    if not 0 <= delta1 < 1:
        raise ValueError("delta1 must lie in [0, 1)")
    if delta2 <= delta1:
        raise ValueError("delta2 must exceed delta1")
    if not 0 <= delta0 < delta2 - delta1:
        raise ValueError("delta0 must lie in [0, delta2 - delta1)")
    z = float(z0)
    early_at = max(10, steps // 100)
    early = None
    for k in range(1, steps + 1):
        r1 = min(a1 * (k + 1.0) ** (-delta1), 1.0)
        r2 = a2 * (k + 1.0) ** (-delta2)
        z = (1.0 - r1) * z + r2
        if k == early_at:
            early = (k + 1.0) ** delta0 * z
    scaled = (steps + 1.0) ** delta0 * z
    converges = bool(np.isfinite(scaled) and (early is None or scaled <= early + 1e-300))
    return KarRateReport(converges, float(scaled), z)


def technical_inner_product(x, v, q, alpha_k, gamma_k):
    """<x - alpha/2 (v - gamma Q x), v + gamma Q x>, positive for large k
    outside the coercivity radius."""
    qm = q.matrix
    qx = qm @ np.asarray(x, dtype=float)
    w = np.asarray(v, dtype=float) + gamma_k * qx
    return float(np.dot(x - 0.5 * alpha_k * (np.asarray(v) - gamma_k * qx), w))


def per_step(callback):
    """A `run_batch` observer that calls callback(k, zeta_k, x, active) once
    per step, in step order, with that step's (rows, m) states and (rows,)
    live mask."""
    def observer(k_first, zetas, states, active):
        for j, (zeta, x, live) in enumerate(zip(zetas, states, active)):
            callback(k_first + j, zeta, x, live)
    return observer


@dataclass
class BatchRun:
    """Vectorized multi-seed run: per-seed rows of checkpointed metrics."""

    seeds: np.ndarray
    steps: np.ndarray
    zeta: np.ndarray
    consensus_error: np.ndarray  # (n_seeds, n_records)
    grad_norm: np.ndarray
    state_norm: np.ndarray
    final_states: np.ndarray
    sup_state_norm: np.ndarray
    diverged_at: np.ndarray  # -1 where the seed stayed finite

    @property
    def n_seeds(self):
        return len(self.seeds)


def run_batch(initial, steps, loss, q, schedule, noise, seeds, *,
              record="geometric", ceiling=DIVERGENCE_CEILING, rotation=None,
              chunk=256, observer=None, n_agents=1, k_start=1):
    """Run one seed per row of a vectorized batch of the general recursion.

    This is the one loop that iterates the recursion; `run` and
    `run_agentwise` are its one-row views. Each seed draws from its own
    spawned streams, so row s reproduces `run` with that seed up to the BLAS
    summation order of the wider batch; one `draw_chunk` call draws every
    row's noise for a chunk of steps. Diverged rows are frozen at their last
    state below the ceiling and recorded, not fatal; once every row has diverged the loop
    stops, and the remaining checkpoints repeat the frozen rows' metrics.
    observer(k_first, zetas, states, active) is called once per chunk with
    the chunk's (span, rows, m) states, the schedule index k_first of its
    first step, the elapsed times zetas after each step and the (span, rows)
    mask of the rows still live after each step. `states` and `active` are
    valid only during the call (later steps reuse them), so an observer
    copies what it keeps and never writes to them; `per_step` adapts a
    per-step callback. k_start shifts the schedule index (restart
    experiments resume mid-schedule).

    Steps run `chunk` at a time. Divergence and the sup-norm are checked once
    per chunk on the chunk's stored states: from its first step past the
    ceiling on, a row's states are overwritten with its last state below
    the ceiling, and the sup-norm spans only its live steps. Once every row
    has crossed, only the steps before the last crossing are served. So every
    result, and the observed sequence flattened per step, is the same for
    any chunk size.
    """
    seeds = np.asarray(list(seeds), dtype=int)
    s_count = len(seeds)
    x0 = np.asarray(initial, dtype=float)
    if x0.ndim == 1:
        x0 = np.broadcast_to(x0, (s_count, len(x0)))
    x = np.array(x0, dtype=float)
    m = x.shape[1]
    if m % n_agents:
        raise ValueError("state dimension must split evenly across agents")
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    if rotation is None:
        rotation = constraint_rotation(q)
    qm = q.matrix
    stream = noise.start(n_agents, m // n_agents, rotation, seed=seeds)

    points = _record_points(steps, record)
    zeta0 = float(np.sum(schedule.alpha(np.arange(1, k_start)))) if k_start > 1 else 0.0
    ks = np.arange(k_start, k_start + steps)
    alphas = schedule.alpha(ks)
    gammas = schedule.gamma(ks)
    zeta_all = zeta0 + np.concatenate([[0.0], np.cumsum(alphas)])

    basis = rotation.constraint_basis
    off = rotation.off_basis

    def metrics(xs):
        cons = np.linalg.norm(xs @ off, axis=1)
        proj = (xs @ basis) @ basis.T
        v = loss.subgradient(proj)
        gn = np.linalg.norm(v @ basis, axis=1)
        return cons, gn, np.linalg.norm(xs, axis=1)

    n_rec = len(points)
    cons_rec = np.empty((s_count, n_rec))
    grad_rec = np.empty((s_count, n_rec))
    norm_rec = np.empty((s_count, n_rec))
    cons_rec[:, 0], grad_rec[:, 0], norm_rec[:, 0] = metrics(x)
    sup_norm = np.linalg.norm(x, axis=1)
    diverged_at = np.full(s_count, -1, dtype=int)
    active = np.ones(s_count, dtype=bool)
    rec_idx = 1

    def step(x, count, xi, out=None):
        """The update of every row at step `count` of this run (1-based);
        xi is the step's (rows, n_agents, agent_dim) noise, or None."""
        drive = x @ qm
        drive *= gammas[count - 1]
        drive += loss.subgradient(x)
        if xi is not None:
            blocks = drive.reshape(xi.shape)  # a view: matmul returns a C-ordered array
            blocks += xi
        return np.subtract(x, alphas[count - 1] * drive, out=out)

    states = np.empty((min(chunk, steps), s_count, m))
    k = 1
    while k <= steps and active.any():
        span = min(chunk, steps - k + 1)
        xs = states[:span]
        xi = [None] * span if noise.kind == "none" else stream.draw_chunk(span)
        start = x.copy()
        frozen = None if active.all() else ~active
        for j in range(span):
            x = step(x, k + j, xi[j], out=xs[j])
            if frozen is not None:
                x[frozen] = start[frozen]
        # each active row's first step past the ceiling (NaN included), or span
        norms = row_norms(xs)
        crossed = active & ~(norms <= ceiling)
        hit = crossed.any(axis=0)
        cross = np.where(hit, crossed.argmax(axis=0), span)
        live = active & (np.arange(span)[:, None] < cross)
        if hit.any():
            diverged_at[hit] = k_start + k + cross[hit] - 1
            # from its crossing on, a row keeps its last state below the ceiling
            last = np.where((cross > 0)[:, None], xs[cross - 1, np.arange(s_count)], start)
            np.copyto(xs, last, where=~live[:, :, None])
            active &= ~hit
        np.maximum(sup_norm, np.max(norms, axis=0, where=live, initial=0.0), out=sup_norm)
        # every step while a row is live: the steps before the last crossing
        served = int(np.count_nonzero(live.any(axis=1)))
        if observer is not None and served:
            observer(k_start + k - 1, zeta_all[k:k + served], xs[:served], live[:served])
        while rec_idx < n_rec and points[rec_idx] < k + served:
            cons_rec[:, rec_idx], grad_rec[:, rec_idx], norm_rec[:, rec_idx] = \
                metrics(xs[points[rec_idx] - k])
            rec_idx += 1
        k += span
    x = x.copy()  # not a view of the state buffer
    if rec_idx < n_rec:
        # every row diverged: stepping on would record these frozen states again
        for rec, col in zip((cons_rec, grad_rec, norm_rec), metrics(x)):
            rec[:, rec_idx:] = col[:, None]

    return BatchRun(seeds, np.asarray(points), zeta_all[points], cons_rec, grad_rec,
                    norm_rec, x, sup_norm, diverged_at)
