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

from dataclasses import dataclass

import numpy as np

from .errors import DivergedError
from .graphs import consensus_penalty, laplacian

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
        """One noise event.

        Test-only: the single-step references draw one event at a time.
        """
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
        for gen, block in zip(self._gens, out.reshape(rows * self.n_agents, count,
                                                      self.agent_dim)):
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
            flat = out.transpose(0, 2, 1, 3).reshape(rows, count,
                                                     self.n_agents * self.agent_dim)
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
    """One update of the penalized recursion; consumes one noise event.

    Test-only: the single-step reference of the general form (acceptance test_01).
    """
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
    private loss. Equals the stacked general step with Q = L kron I_d.

    Test-only: the single-step reference of the agentwise form (acceptance test_01).
    """
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
    """Checkpointed record of a run: per-checkpoint step count, elapsed time,
    metrics and state.

    Test-only: the one-seed view of a `BatchRun`.
    """

    steps: np.ndarray
    zeta: np.ndarray
    consensus_error: np.ndarray
    grad_norm: np.ndarray
    state_norm: np.ndarray
    states: np.ndarray
    sup_state_norm: float
    noise_kind: str

    def __len__(self):
        return len(self.steps)

    @property
    def final_state(self):
        """Test-only: the one-seed view of `BatchRun.final_states`."""
        return self.states[-1]


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
        ceiling=DIVERGENCE_CEILING, n_agents=1):
    """Iterate the general recursion, recording metrics and states at checkpoints.

    The one-row view of `run_batch` whose only seed is the noise seed, so it is
    deterministic given that seed. n_agents fixes the noise sub-stream layout:
    with n_agents = N the run consumes the same realizations as the agentwise
    form on N agents. Raises DivergedError past the ceiling.

    Test-only: the one-seed view of `run_batch`.
    """
    x0 = np.asarray(initial, dtype=float)
    batch = run_batch(x0, steps, loss, q, schedule, noise, [noise.seed], record=record,
                      ceiling=ceiling, n_agents=n_agents)
    if batch.diverged_at[0] >= 0:
        raise DivergedError(int(batch.diverged_at[0]))
    return Trajectory(batch.steps, batch.zeta, batch.consensus_error[0],
                      batch.grad_norm[0], batch.state_norm[0], batch.states[0],
                      float(batch.sup_state_norm[0]), noise.kind)


def run_agentwise(initial_states, steps, losses, graph, schedule, noise=NoiseModel(),
                  *, record="geometric"):
    """Iterate the agentwise recursion on a communication graph: `run` with
    Q = L kron I_d and one noise sub-stream per agent.

    Test-only: the one-seed view of `run_batch` in the agentwise form.
    """
    states = np.asarray(initial_states, dtype=float)
    n, d = states.shape
    if n != len(losses.components) or d != losses.components[0].dim:
        raise ValueError("initial states disagree with the loss stack")
    return run(states.ravel(), steps, losses.assembled,
               consensus_penalty(laplacian(graph), d), schedule, noise, record=record,
               n_agents=n)


def per_step(callback):
    """A `run_batch` observer that calls callback(k, zeta_k, x, active) once
    per step, in step order, with that step's (rows, m) states and (rows,)
    live mask.

    Test-only: the one-step-at-a-time view of a chunk observer.
    """
    def observer(k_first, zetas, states, active):
        for j, (zeta, x, live) in enumerate(zip(zetas, states, active)):
            callback(k_first + j, zeta, x, live)
    return observer


def checkpoint_metrics(xs, loss, rotation):
    """Consensus error, restricted gradient norm and state norm of each row of
    the (rows, m) states xs: the norms of xs off the constraint space, of the
    constraint part of the subgradient at xs projected onto it, and of xs."""
    basis = rotation.constraint_basis
    cons = np.linalg.norm(xs @ rotation.off_basis, axis=1)
    proj = (xs @ basis) @ basis.T
    gn = np.linalg.norm(loss.subgradient(proj) @ basis, axis=1)
    return cons, gn, np.linalg.norm(xs, axis=1)


@dataclass
class BatchRun:
    """Vectorized multi-seed run: per-seed rows of checkpointed metrics and
    states."""

    seeds: np.ndarray
    steps: np.ndarray
    zeta: np.ndarray
    consensus_error: np.ndarray  # (n_seeds, n_records)
    grad_norm: np.ndarray
    state_norm: np.ndarray
    states: np.ndarray  # (n_seeds, n_records, m)
    sup_state_norm: np.ndarray
    diverged_at: np.ndarray  # -1 where the seed stayed finite

    @property
    def n_seeds(self):
        return len(self.seeds)

    @property
    def final_states(self):
        return self.states[:, -1]


def run_batch(initial, steps, loss, q, schedule, noise, seeds, *,
              record="geometric", ceiling=DIVERGENCE_CEILING, chunk=256,
              observer=None, n_agents=1, k_start=1):
    """Run one seed per row of a vectorized batch of the general recursion.

    This is the one loop that iterates the recursion; `run` and
    `run_agentwise` are its one-row views. Each seed draws from its own
    spawned streams, so row s reproduces `run` with that seed up to the BLAS
    summation order of the wider batch; one `draw_chunk` call draws every
    row's noise for a chunk of steps. Each checkpoint keeps every row's state
    (`BatchRun.states`), copied from the chunk buffer, and its metrics come
    from `checkpoint_metrics` on those states. Diverged rows are frozen at
    their last state below the ceiling and recorded, not fatal; once every row
    has diverged the loop stops, and the remaining checkpoints repeat the
    frozen rows' states and metrics.
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
    qm = q.matrix
    stream = noise.start(n_agents, m // n_agents, q.rotation, seed=seeds)

    points = _record_points(steps, record)
    zeta0 = float(np.sum(schedule.alpha(np.arange(1, k_start)))) if k_start > 1 else 0.0
    ks = np.arange(k_start, k_start + steps)
    alphas = schedule.alpha(ks)
    gammas = schedule.gamma(ks)
    zeta_all = zeta0 + np.concatenate([[0.0], np.cumsum(alphas)])

    n_rec = len(points)
    # checkpoint-major: the metrics read each checkpoint as one C-ordered (rows, m) block
    rec = np.empty((n_rec, s_count, m))
    rec[0] = x
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
            rec[rec_idx] = xs[points[rec_idx] - k]
            rec_idx += 1
        k += span
    # once every row has diverged, stepping on would record its frozen states
    # again, and their metrics are those of the first record that holds them
    rec[rec_idx:] = x
    cols = [checkpoint_metrics(xs, loss, q.rotation) for xs in rec[:rec_idx + 1]]
    cols += cols[-1:] * (n_rec - len(cols))
    cons, grad, norm = (np.stack(col, axis=1) for col in zip(*cols))
    return BatchRun(seeds, np.asarray(points), zeta_all[points], cons, grad, norm,
                    rec.transpose(1, 0, 2), sup_norm, diverged_at)
