"""Discrete stochastic recursions: the general penalized form and the
agentwise consensus form.

The general update is
    x(k+1) = x(k) - alpha_k (v(k) + gamma_k Q x(k) + xi(k+1)),
with v(k) a subgradient selection; the agentwise form
    x_n(k+1) = x_n(k) + beta_k sum_{l in neighbors} (x_l - x_n)
               - alpha_k (v_n(k) + xi_n(k+1))
is its special case with Q = L kron I_d and beta_k = alpha_k gamma_k. Noise is
drawn from one sub-stream per (row seed, agent), spawned from that row's
seed, so stacked and agentwise runs can consume identical realizations.
`run_batch`, one row per seed, is the one way to iterate the recursion;
`general_step`/`agentwise_step` are the single-step references. It steps
each chunk once and serves it to one observer call. A run's noise is
drawn one chunk ahead by a forked child process (`os.fork`, so POSIX only)
into a shared step-major buffer, while the parent steps the chunk before.
"""

from __future__ import annotations

import gc
import math
import mmap
import os
import pickle
import signal
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DivergedError, allocation
from .graphs import laplacian

DIVERGENCE_CEILING = 1e12


@dataclass(frozen=True)
class NoiseModel:
    """Zero-mean per-step noise: none, gaussian(sigma), or uniform-sphere(r)."""

    kind: str = "none"
    scale: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "gaussian", "uniform-sphere"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.kind != "none" and self.scale <= 0:
            raise ValueError("gaussian and uniform-sphere noise need a positive scale")

    def start(self, seeds, n_agents, agent_dim):
        """A stream with one row per seed of the sequence `seeds`."""
        return NoiseStream(self.kind, self.scale, seeds, n_agents, agent_dim)


class NoiseStream:
    """Stateful noise source with one spawned generator per (seed, agent).

    `seeds` is a sequence of row seeds; an event has shape (rows, n_agents,
    agent_dim), and row r draws exactly what a stream of seeds[r] alone draws.
    """

    def __init__(self, kind, scale, seeds, n_agents, agent_dim):
        self.kind = kind
        self.scale = scale
        self.rows = len(seeds)
        self.n_agents = n_agents
        self.agent_dim = agent_dim
        if kind == "none":
            self._gens = None
        else:
            self._gens = [np.random.default_rng(child)
                          for seed in seeds
                          for child in np.random.SeedSequence(int(seed)).spawn(n_agents)]

    def draw(self):
        """One noise event.

        Test-only: the single-step references draw one event at a time.
        """
        return self.draw_chunk(1)[0]

    def draw_chunk(self, count, out=None):
        """count consecutive events as one C-contiguous array of shape
        (count,) + the event shape, step-major; written into `out` when given.

        Each (seed, agent) generator fills its (count, agent_dim) block of one
        contiguous (rows, n_agents, count, agent_dim) buffer, which is scaled
        once; one transposing copy then moves the buffer to the step-major
        layout, a whole agent_dim-wide event at a time. Chunked draws consume
        each generator exactly as repeated single draws do, so chunking never
        changes realizations.
        """
        rows, n, d = self.rows, self.n_agents, self.agent_dim
        shape = (count, rows, n, d)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous array of shape {shape}")
        if self.kind == "none":
            out[...] = 0.0
            return out
        buf = np.empty((rows, n, count, d))
        for gen, block in zip(self._gens, buf.reshape(rows * n, count, d)):
            gen.standard_normal(out=block)
        if self.kind == "uniform-sphere":
            norms = np.linalg.norm(buf, axis=-1, keepdims=True)
            norms[norms == 0.0] = 1.0
            buf *= self.scale
            buf /= norms
        else:
            buf *= self.scale
        # one cell per event: with d = 2 an element-wise copy's inner loop is
        # 2 long, and the transposing copy costs several times as much
        cell = np.dtype((np.void, 8 * d))
        np.copyto(out.view(cell)[..., 0].reshape(count, rows, n),
                  buf.view(cell)[..., 0].transpose(2, 0, 1))
        return out


class _NoiseProducer:
    """A run's noise chunks, drawn one chunk ahead by a forked child.

    The child owns the stream and draws chunk i into slot i % 2 of an
    anonymous shared mmap while the parent steps chunk i - 1. It reports
    each chunk with a byte on the `ready` pipe and, before it reuses a slot,
    waits for the parent's byte on the `free` pipe. It calls no BLAS, so the
    fork is safe alongside OpenBLAS's threads. It exits with `os._exit`
    after its last chunk, or on EOF or EPIPE once the parent is gone; a
    failure while drawing is pickled down `ready` and raised in the parent.
    POSIX only (`os.fork`).
    """

    def __init__(self, stream, spans):
        self.spans = spans
        self.received = 0
        shape = (max(spans), stream.rows, stream.n_agents, stream.agent_dim)
        size = 8 * math.prod(shape)
        shared = mmap.mmap(-1, 2 * size)
        self.slots = [np.ndarray(shape, buffer=shared, offset=i * size) for i in (0, 1)]
        ready_r, ready_w = os.pipe()
        free_r, free_w = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12+ warns on any fork in a multi-threaded process;
                # here the only other threads are OpenBLAS's, and the child
                # never calls into BLAS, so it cannot deadlock on their locks
                warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                        DeprecationWarning)
                self.pid = os.fork()
        except BaseException:
            for fd in (ready_r, ready_w, free_r, free_w):
                os.close(fd)
            raise
        if self.pid == 0:
            os.close(ready_r)
            os.close(free_w)
            self._produce(stream, ready_w, free_r)
        os.close(ready_w)
        os.close(free_r)
        self._ready, self._free = ready_r, free_w

    def _produce(self, stream, ready, free):
        """The child's whole life: draw every chunk, then exit."""
        gc.disable()  # a collection would write to, and so copy, the parent's pages
        # a draw that overflows makes its row diverge in the parent's ceiling check
        np.seterr(over="ignore", invalid="ignore")
        code = 0
        try:
            for i, span in enumerate(self.spans):
                if i >= 2 and not os.read(free, 1):
                    break
                stream.draw_chunk(span, out=self.slots[i % 2][:span])
                os.write(ready, b"\0")
        except BrokenPipeError:
            pass
        except BaseException as exc:
            code = 1
            try:
                payload = pickle.dumps(exc)
                pickle.loads(payload)  # the parent must be able to rebuild it
            except Exception:
                payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            try:
                with os.fdopen(ready, "wb") as pipe:
                    pipe.write(b"\1" + payload)
            except OSError:
                pass
        finally:
            os._exit(code)

    def chunk(self, i):
        """Chunk i's noise, (span,) + the event shape; valid until release(i)."""
        tag = os.read(self._ready, 1)
        if tag != b"\0":
            raise self._failure(tag)
        self.received += 1
        return self.slots[i % 2][:self.spans[i]]

    def release(self, i):
        """Hand chunk i's slot back to the child, if it still has a chunk to
        draw there."""
        if i + 2 < len(self.spans):
            try:
                os.write(self._free, b"\0")
            except BrokenPipeError:
                pass  # the child has failed; the next chunk() raises its error

    def _failure(self, tag):
        if tag == b"\1":
            payload = b"".join(iter(lambda: os.read(self._ready, 1 << 16), b""))
            return pickle.loads(payload)
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        return RuntimeError("the noise producer exited with status "
                            f"{os.waitstatus_to_exitcode(status)} before its last chunk")

    def close(self):
        """Reap the child, killing it first unless it has delivered every chunk."""
        os.close(self._ready)
        os.close(self._free)
        if self.pid is not None:
            if self.received < len(self.spans):
                os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


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
    """One update of the penalized recursion; consumes one event of a one-row
    noise stream.

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
    private loss; consumes one event of a one-row noise stream. Equals the
    stacked general step with Q = L kron I_d.

    Test-only: the single-step reference of the agentwise form (acceptance test_01).
    """
    if k < 1:
        raise ValueError("step index starts at 1")
    states = np.asarray(states, dtype=float)
    grads = np.stack([c.subgradient(states[n]) for n, c in enumerate(losses.components)])
    xi = noise.draw()[0]
    # sum over neighbors of (x_l - x_n) is exactly -(L @ states) row-wise
    new = (states - schedule.beta(k) * (laplacian(graph) @ states)
           - schedule.alpha(k) * (grads + xi))
    if not np.all(np.isfinite(new)):
        raise DivergedError(k)
    return new


def _record_points(steps, record):
    """The checkpoint steps: 0, steps, and the powers of 2 or the multiples
    of the record interval between them."""
    if record == "geometric":
        pts = {2**i for i in range(int(steps).bit_length())}
    elif int(record) < 1:
        raise ValueError("record interval must be >= 1")
    else:
        pts = set(range(0, steps + 1, int(record)))
    return sorted(pts | {0, steps})


def per_step(callback):
    """A `run_batch` observer that calls callback(k, x, active) once per step,
    in step order, with the step's schedule index k, its (rows, m) states and
    its (rows,) live mask.

    Test-only: the one-step-at-a-time view of a chunk observer.
    """
    def observer(k_first, states, active):
        for j, (x, live) in enumerate(zip(states, active)):
            callback(k_first + j, x, live)
    return observer


def checkpoint_metrics(xs, loss, rotation):
    """Consensus error and restricted gradient norm of each row of the
    (rows, m) states xs: the norms of xs off the constraint space, and of the
    constraint part of the subgradient at xs projected onto it."""
    basis = rotation.constraint_basis
    cons = np.linalg.norm(xs @ rotation.off_basis, axis=1)
    proj = (xs @ basis) @ basis.T
    gn = np.linalg.norm(loss.subgradient(proj) @ basis, axis=1)
    return cons, gn


@dataclass
class BatchRun:
    """Vectorized multi-seed run: per-seed rows of checkpointed metrics and
    states."""

    seeds: np.ndarray
    steps: np.ndarray
    consensus_error: np.ndarray  # (n_seeds, n_records)
    grad_norm: np.ndarray
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

    This is the one loop that iterates the recursion, on the schedule index k
    alone (k_start shifts it: restart experiments resume mid-schedule); the
    elapsed time zeta_k of the ODE method is `schedules.elapsed_times`. A
    one-seed run is a batch of one row. Each seed draws from its own spawned
    streams, so row s reproduces the one-row batch of that seed up to the
    BLAS summation order of the wider batch. Each chunk's noise is one
    `draw_chunk` call, made one chunk ahead in a child forked before the loop
    (`_NoiseProducer`); a failure there is raised here, and the child is
    reaped on every path, so no process outlives the call.

    Steps run `chunk` at a time. Divergence and the sup-norm are checked once
    per chunk on the chunk's stored states: from its first step past the
    ceiling (an overflow to inf or NaN included) on, a row is frozen at its
    last state below the ceiling and recorded, not fatal, and the sup-norm
    spans only its live steps; a frozen row steps on (a step acts row by row)
    until one restore at the chunk's end. Once every row has crossed, the
    loop stops, only the steps before the last crossing are served, and the
    checkpoints left repeat the frozen states. Each checkpoint keeps every
    row's state (`BatchRun.states`) and its `checkpoint_metrics`. So every
    result, and the observed sequence flattened per step, is the same for
    any chunk size.

    observer(k_first, states, active) is called once per chunk with the
    schedule index of its first step, the chunk's (span, rows, m) states and
    the (span, rows) mask of the rows live after each step. Both are valid
    only during the call (later steps reuse them), so an observer copies
    what it keeps and never writes to them; `per_step` adapts a per-step
    callback.
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
    stream = noise.start(seeds, n_agents, m // n_agents)

    points = _record_points(steps, record)
    n_rec = len(points)
    # checkpoint-major: the metrics read each checkpoint as one C-ordered (rows, m) block
    rec = np.empty((n_rec, s_count, m))
    rec[0] = x
    sup_norm = np.linalg.norm(x, axis=1)
    diverged_at = np.full(s_count, -1, dtype=int)
    active = np.ones(s_count, dtype=bool)
    rec_idx = 1

    drive = np.empty((s_count, m))
    # a view, as drive is C-ordered: one step's noise adds to it in place
    drive_blocks = drive.reshape((s_count, n_agents, m // n_agents))

    def step(x, alpha, gamma, xi, out):
        """The update of every row at one step, written into out; xi is the
        step's (rows, n_agents, agent_dim) noise, or None."""
        np.matmul(x, qm, out=drive)
        np.multiply(drive, gamma, out=drive)
        np.add(drive, loss.subgradient(x), out=drive)
        if xi is not None:
            np.add(drive_blocks, xi, out=drive_blocks)
        np.multiply(drive, alpha, out=drive)
        return np.subtract(x, drive, out=out)

    states = np.empty((min(chunk, steps), s_count, m))
    # one span per chunk, the last one cut short; a step count too large to
    # run fails here with a MemoryError
    with allocation(f"the chunk spans of {steps} steps"):
        spans = np.minimum(chunk, steps - np.arange(0, steps, chunk)).tolist()
    # with no rows or no steps there is nothing to draw, and no child to fork
    producer = (_NoiseProducer(stream, spans) if noise.kind != "none" and s_count and spans
                else None)
    try:
        k = 1
        for i, span in enumerate(spans):
            if not active.any():
                break
            xs = states[:span]
            xi = [None] * span if producer is None else producer.chunk(i)
            ks = np.arange(k_start + k - 1, k_start + k - 1 + span)
            alphas, gammas = schedule.alpha(ks), schedule.gamma(ks)
            start = x.copy()
            # a row that overflows to inf or NaN crosses the ceiling below (or
            # crossed before, and is restored), so its overflow is no error
            with np.errstate(over="ignore", invalid="ignore"):
                for j in range(span):
                    x = step(x, alphas[j], gammas[j], xi[j], xs[j])
                if producer is not None:
                    producer.release(i)
                # each active row's first step past the ceiling (NaN included), or span
                norms = row_norms(xs)
            crossed = active & ~(norms <= ceiling)
            hit = crossed.any(axis=0)
            cross = np.where(hit, crossed.argmax(axis=0), span)
            live = active & (np.arange(span)[:, None] < cross)
            diverged_at[hit] = k_start + k + cross[hit] - 1
            if not live.all():
                # from its crossing on, a row keeps its last state below the ceiling
                last = np.where((hit & (cross > 0))[:, None],
                                xs[cross - 1, np.arange(s_count)], start)
                np.copyto(xs, last, where=~live[:, :, None])
            active &= ~hit
            np.maximum(sup_norm, np.max(norms, axis=0, where=live, initial=0.0),
                       out=sup_norm)
            # every step while a row is live: the steps before the last crossing
            served = int(np.count_nonzero(live.any(axis=1)))
            if observer is not None and served:
                observer(k_start + k - 1, xs[:served], live[:served])
            while rec_idx < n_rec and points[rec_idx] < k + served:
                rec[rec_idx] = xs[points[rec_idx] - k]
                rec_idx += 1
            k += span
    finally:
        if producer is not None:
            producer.close()
    # once every row has diverged, stepping on would record its frozen states
    # again: the checkpoints left hold the rows' last states
    rec[rec_idx:] = x
    cons, grad = (np.stack(col, axis=1) for col in
                  zip(*(checkpoint_metrics(xs, loss, q.rotation) for xs in rec)))
    return BatchRun(seeds, np.asarray(points), cons, grad, rec.transpose(1, 0, 2),
                    sup_norm, diverged_at)
