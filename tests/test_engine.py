import dataclasses
import os
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsgdlab import engine
from dsgdlab.engine import (
    BatchRun,
    NoiseModel,
    NoiseStream,
    _NoiseProducer,
    agentwise_step,
    general_step,
    per_step,
    row_norms,
    run_batch,
)
from dsgdlab.errors import DivergedError
from dsgdlab.graphs import (
    Graph,
    consensus_penalty,
    laplacian,
    path_graph,
    penalty_from_matrix,
)
from dsgdlab.losses import (
    LossOracle,
    l1_regularized,
    quadratic_form,
    quadratic_saddle,
    relu_regression,
    shifted_quadratic,
    sum_loss,
    zero_loss,
)
from dsgdlab.schedules import Schedule


SCHED = Schedule(1.0, 1.0, 0.5, 0.6)


def consensus_problem(n, d):
    q = consensus_penalty(laplacian(path_graph(n)), d)
    losses = sum_loss([zero_loss(d) for _ in range(n)])
    return q, losses


def test_one_step_consensus_hand_case():
    # alpha_1 * gamma_1 = 0.5 with loss 0 averages the two agents in one step
    sched = Schedule(1.0, 1.0, 0.5, 0.6)
    q, losses = consensus_problem(2, 1)
    x = np.array([1.0, 0.0])
    stream = NoiseModel().start([0], 2, 1)
    new = general_step(x, 1, losses.assembled, q, sched, stream)
    assert np.allclose(new, [0.5, 0.5])


def test_fixed_point_is_fixed():
    q, losses = consensus_problem(3, 2)
    x = np.tile([0.3, -0.7], 3)  # consensual, zero loss: v = 0 and Qx = 0
    stream = NoiseModel().start([0], 3, 2)
    new = general_step(x, 5, losses.assembled, q, SCHED, stream)
    assert np.array_equal(new, x)


def test_plain_descent_step_hand_case():
    loss = quadratic_saddle([1.0, -1.0])
    q = penalty_from_matrix(np.zeros((2, 2)))
    sched = Schedule(0.1, 1.0, 1.0, 0.6)  # alpha_1 = 0.1
    stream = NoiseModel().start([0], 1, 2)
    new = general_step(np.array([1.0, 1.0]), 1, loss, q, sched, stream)
    assert np.allclose(new, [0.9, 1.1])


def test_general_step_detects_divergence():
    loss = LossOracle(1, lambda x: np.zeros(np.shape(x)[:-1]),
                      lambda x: np.full_like(np.asarray(x, float), np.inf))
    q = penalty_from_matrix(np.zeros((1, 1)))
    with pytest.raises(DivergedError) as err:
        general_step(np.array([1.0]), 3, loss, q, SCHED, NoiseModel().start([0], 1, 1))
    assert err.value.step == 3


def random_agent_losses(rng, n, d):
    comps = []
    for _ in range(n):
        h = rng.standard_normal((d, d))
        comps.append(quadratic_form(h + h.T + 2 * d * np.eye(d), rng.standard_normal(d)))
    return sum_loss(comps)


def test_agentwise_matches_general_random_tuples():
    rng = np.random.default_rng(42)
    for trial in range(25):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 4))
        edges = {(1, j) for j in range(2, n + 1)}
        edges |= {(int(i), int(j)) for i, j in rng.integers(1, n + 1, (2 * n, 2))
                  if i < j}
        g = Graph.from_edges(n, edges)
        losses = random_agent_losses(rng, n, d)
        q = consensus_penalty(laplacian(g), d)
        noise, seeds = NoiseModel("gaussian", 0.5), [int(rng.integers(1 << 30))]
        x0 = rng.standard_normal((n, d))

        s_a = noise.start(seeds, n, d)
        s_g = noise.start(seeds, n, d)
        xa = x0.copy()
        xg = x0.ravel().copy()
        for k in range(1, 16):
            xa = agentwise_step(xa, k, losses, g, SCHED, s_a)
            xg = general_step(xg, k, losses.assembled, q, SCHED, s_g)
            assert np.linalg.norm(xa.ravel() - xg) <= 1e-12 * max(1.0, np.linalg.norm(xg))


def test_pure_consensus_preserves_mean():
    g = path_graph(4)
    losses = sum_loss([zero_loss(2) for _ in range(4)])
    x = np.random.default_rng(0).standard_normal((4, 2))
    stream = NoiseModel().start([0], 4, 2)
    mean0 = x.mean(axis=0)
    for k in range(1, 200):
        x = agentwise_step(x, k, losses, g, SCHED, stream)
        assert np.allclose(x.mean(axis=0), mean0, atol=1e-13)


def test_two_agent_quadratics_reach_sum_minimizer():
    # f1 = (x-1)^2/2, f2 = (x+1)^2/2: the sum is minimized at 0. The agents'
    # disagreement floor is Theta(1/gamma_k); the network mean contracts fast.
    losses = sum_loss([shifted_quadratic([1.0]), shifted_quadratic([-1.0])])
    q = consensus_penalty(laplacian(path_graph(2)), 1)
    batch = run_batch(np.array([2.0, -0.5]), 100_000, losses.assembled, q,
                      Schedule(1.0, 1.0, 0.5, 0.6), NoiseModel(), [0], n_agents=2)
    final = batch.final_states[0]
    assert abs(final.mean()) < 1e-4
    assert np.linalg.norm(final) < 5e-3
    assert batch.consensus_error[0, -1] < 5e-3


def test_run_zero_steps_contains_initial_state_only():
    q, losses = consensus_problem(2, 1)
    batch = run_batch(np.array([1.0, 0.0]), 0, losses.assembled, q, SCHED, NoiseModel(), [0])
    assert len(batch.steps) == 1
    assert batch.steps[0] == 0
    assert np.array_equal(batch.states[0], [[1.0, 0.0]])


def test_run_determinism_same_seed():
    q, losses = consensus_problem(3, 1)
    noise = NoiseModel("gaussian", 0.3)
    a = run_batch(np.array([1.0, 0.0, -1.0]), 500, losses.assembled, q, SCHED, noise, [9],
                  n_agents=3)
    b = run_batch(np.array([1.0, 0.0, -1.0]), 500, losses.assembled, q, SCHED, noise, [9],
                  n_agents=3)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.consensus_error, b.consensus_error)


def test_consensus_error_decays_with_zero_loss():
    q, losses = consensus_problem(5, 2)
    x0 = np.random.default_rng(1).standard_normal(10)
    batch = run_batch(x0, 100_000, losses.assembled, q, SCHED, NoiseModel("gaussian", 0.1),
                      [3], n_agents=5)
    idx_1e3 = np.searchsorted(batch.steps, 1000)
    assert batch.consensus_error[0, -1] < 1e-3
    assert batch.consensus_error[0, -1] < batch.consensus_error[0, idx_1e3]


def test_expected_one_step_update_matches_drift():
    # averaging over draws converges to x - alpha (grad + gamma Q x) at MC rate
    loss = quadratic_form(np.diag([1.0, 2.0]), [0.3, -0.1])
    q = penalty_from_matrix(np.diag([0.0, 1.0]))
    x = np.array([0.7, -0.4])
    k = 10
    sigma = 0.5
    n_draws = 40_000
    stream = NoiseModel("gaussian", sigma).start([11], 1, 2)
    acc = np.zeros(2)
    for _ in range(n_draws):
        acc += general_step(x, k, loss, q, SCHED, stream)
    mc = acc / n_draws
    expected = x - SCHED.alpha(k) * (loss.subgradient(x) + SCHED.gamma(k) * (q.matrix @ x))
    tol = 5.0 * float(SCHED.alpha(k)) * sigma / np.sqrt(n_draws)
    assert np.linalg.norm(mc - expected) < tol


def test_noise_streams_are_zero_mean_with_directional_excitation():
    # conditionally zero mean with bounded second moment, and the averaged
    # positive part along any unit direction stays above a positive floor
    rng = np.random.default_rng(17)
    for kind in ("gaussian", "uniform-sphere"):
        stream = NoiseModel(kind, 1.0).start([5], 2, 3)
        draws = stream.draw_chunk(4000).reshape(4000, 6)
        assert np.max(np.abs(draws.mean(axis=0))) < 0.05
        second_moment = np.mean(np.sum(draws ** 2, axis=1))
        assert second_moment < 10.0
        for _ in range(5):
            theta = rng.standard_normal(6)
            theta /= np.linalg.norm(theta)
            positive_part = np.maximum(draws @ theta, 0.0).mean()
            assert positive_part > 0.1


def test_boundedness_probe_coercive_and_anticoercive():
    loss = quadratic_form(np.eye(2))
    q = penalty_from_matrix(np.zeros((2, 2)))
    batch = run_batch(np.array([5.0, -3.0]), 100_000, loss, q, SCHED,
                      NoiseModel("gaussian", 1.0), [0])
    assert batch.diverged_at[0] == -1 and batch.sup_state_norm[0] <= 1e3

    anti = quadratic_form(-np.eye(2))
    batch = run_batch(np.array([1.0, 0.0]), 500_000, anti, q, Schedule(1.0, 1.0, 0.5, 0.6),
                      NoiseModel(), [0], ceiling=1e3)
    assert batch.diverged_at[0] > 0


def test_boundedness_pure_consensus_norm_nonincreasing():
    q, losses = consensus_problem(4, 1)
    x0 = np.array([3.0, -1.0, 2.0, 0.0])
    batch = run_batch(x0, 10_000, losses.assembled, q, SCHED, NoiseModel(), [0])
    assert batch.sup_state_norm[0] <= np.linalg.norm(x0) + 1e-12


def test_network_mean_residual_identity_and_gap():
    # the network mean follows the averaged-gradient recursion
    #   mean(k) = mean(k-1) - alpha_k (mean_n grad f_n(x_n(k-1)) + mean_n xi_n(k))
    # exactly, and the averaged gradients differ from the gradient at the mean
    # by at most Lip(grad f_n) * max_n ||x_n - mean||; here Lip = 1
    rng = np.random.default_rng(12)
    n, d = 4, 2
    losses = sum_loss([shifted_quadratic(rng.standard_normal(d)) for _ in range(n)])
    q = consensus_penalty(laplacian(path_graph(n)), d)

    def mean_recursion(x0, steps, noise, seed):
        batch = run_batch(x0.ravel(), steps, losses.assembled, q, SCHED, noise, [seed],
                          record=1, n_agents=n)
        # a fresh stream for the run's seed replays the realizations it drew
        xi_means = noise.start([seed], n, d).draw_chunk(steps)[:, 0].mean(axis=1)
        blocks = batch.states[0].reshape(-1, n, d)
        means = blocks.mean(axis=1)
        avg_grad = np.mean([c.subgradient(blocks[:-1, i])
                            for i, c in enumerate(losses.components)], axis=0)
        alphas = SCHED.alpha(np.arange(1, steps + 1))[:, None]
        predicted = means[:-1] - alphas * (avg_grad + xi_means)
        grad_at_mean = np.mean([c.subgradient(means[:-1]) for c in losses.components], axis=0)
        return (blocks, np.linalg.norm(means[1:] - predicted, axis=1),
                np.linalg.norm(avg_grad - grad_at_mean, axis=1))

    blocks, identity, gap = mean_recursion(rng.standard_normal((n, d)), 400,
                                           NoiseModel("gaussian", 0.2), 21)
    assert len(identity) == 400
    assert np.max(identity) < 1e-12
    spread = np.linalg.norm(blocks - blocks.mean(axis=1, keepdims=True), axis=2).max(axis=1)
    assert np.all(gap <= spread[:-1] + 1e-12)
    # at consensus the gap vanishes
    consensual = np.tile(rng.standard_normal(d), (n, 1))
    _, _, gap = mean_recursion(consensual, 1, NoiseModel(), 0)
    assert gap[0] < 1e-14


def test_run_batch_rows_match_single_runs(monkeypatch):
    rng = np.random.default_rng(31)
    n, d = 3, 2
    g = path_graph(n)
    losses = random_agent_losses(rng, n, d)
    q = consensus_penalty(laplacian(g), d)
    noise = NoiseModel("gaussian", 0.3)
    x0 = rng.standard_normal(n * d)
    seeds = [5, 17, 99]
    with monkeypatch.context() as patch:
        patch.setattr(engine, "CHUNK", 64)
        batch = run_batch(x0, 200, losses.assembled, q, SCHED, noise, seeds, n_agents=n)
    for row, seed in enumerate(seeds):
        single = run_batch(x0, 200, losses.assembled, q, SCHED, noise, [seed], n_agents=n)
        assert np.linalg.norm(batch.final_states[row] - single.final_states[0]) < 1e-12
        assert abs(batch.consensus_error[row, -1] - single.consensus_error[0, -1]) < 1e-12


def test_run_batch_divergence_recorded_not_fatal():
    anti = quadratic_form(-np.eye(1))
    q = penalty_from_matrix(np.zeros((1, 1)))
    ok = quadratic_form(np.eye(1))
    batch = run_batch(np.array([1.0]), 30_000, anti, q, Schedule(1.0, 1.0, 0.5, 0.6),
                      NoiseModel(), [0, 1], ceiling=1e3)
    assert np.all(batch.diverged_at > 0)
    batch_ok = run_batch(np.array([1.0]), 1000, ok, q, SCHED, NoiseModel(), [0])
    assert np.all(batch_ok.diverged_at == -1)


def test_run_batch_steps_match_agentwise_form(monkeypatch):
    # the kernel every campaign runs follows the paper's agentwise recursion at
    # every step, row by row, on the three loss families of acceptance 01
    rng = np.random.default_rng(7)
    sched = Schedule(0.3, 0.9, 0.4, 0.6)
    steps = 30
    monkeypatch.setattr(engine, "CHUNK", 8)
    for trial in range(12):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(1, 4))
        edges = {(1, j) for j in range(2, n + 1)}
        edges |= {(int(i), int(j)) for i, j in rng.integers(1, n + 1, (2 * n, 2))
                  if i < j}
        g = Graph.from_edges(n, edges)
        pick = trial % 3
        comps = []
        for _ in range(n):
            if pick == 0:
                h = rng.standard_normal((d, d))
                comps.append(quadratic_form(h + h.T + 2 * d * np.eye(d),
                                            rng.standard_normal(d)))
            elif pick == 1:
                comps.append(l1_regularized(shifted_quadratic(rng.standard_normal(d)),
                                            0.5))
            else:
                comps.append(relu_regression(0.5 * rng.standard_normal((3, d)),
                                             0.5 * rng.standard_normal(3), widths=(2,)))
        losses = sum_loss(comps)
        dim = comps[0].dim
        q = consensus_penalty(laplacian(g), dim)
        seeds = [int(s) for s in rng.integers(1 << 30, size=2)]
        x0 = 0.5 * rng.standard_normal((len(seeds), n * dim))
        states = []
        batch = run_batch(x0, steps, losses.assembled, q, sched,
                          NoiseModel("gaussian", 0.5), seeds, n_agents=n,
                          observer=per_step(lambda k, x, active: states.append(x.copy())))
        assert len(states) == steps and np.all(batch.diverged_at == -1)
        for row, seed in enumerate(seeds):
            stream = NoiseModel("gaussian", 0.5).start([seed], n, dim)
            xa = x0[row].reshape(n, dim)
            for k, xb in enumerate(states, start=1):
                xa = agentwise_step(xa, k, losses, g, sched, stream)
                gap = np.linalg.norm(xb[row] - xa.ravel()) / max(1.0, np.linalg.norm(xa))
                assert gap <= 1e-12, (trial, row, k, gap)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(cols=st.integers(1, 12), lead=st.lists(st.integers(0, 6), max_size=3),
       seed=st.integers(0, 2**32 - 1), sliced=st.booleans(),
       specials=st.lists(st.sampled_from([0.0, -0.0, 1.0, 1e200, -1e200, np.nan]),
                         max_size=6))
def test_row_norms_is_bit_equal_to_numpy(cols, lead, seed, sliced, specials):
    # below 8 columns the column adds must reproduce numpy's order, overflow
    # (1e200 squared) and NaN included; from 8 on numpy's own norm is used.
    # A sliced input is a strided view, as the drift series' z[..., :n_u] is
    rng = np.random.default_rng(seed)
    shape = (*lead, cols + 2)
    full = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    flat = full.reshape(-1)
    for value in specials[:flat.size]:
        flat[rng.integers(flat.size)] = value
    x = full[..., 1:cols + 1] if sliced else np.ascontiguousarray(full[..., :cols])
    with np.errstate(over="ignore"):
        got, want = row_norms(x), np.linalg.norm(x, axis=-1)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    # the kernel's ceiling check flags the same rows
    for ceiling in (1.0, 1e12):
        np.testing.assert_array_equal(~(got <= ceiling), ~(want <= ceiling))


def test_run_batch_stops_once_every_row_diverged():
    # x(k+1) = (1 + alpha_k) x(k) grows like k and crosses the ceiling near
    # k = 1000; the x0 = 0 row never moves, so only the first batch can stop
    anti = quadratic_form(-np.eye(1))
    q = penalty_from_matrix(np.zeros((1, 1)))
    sched = Schedule(1.0, 1.0, 0.5, 0.6)
    steps = 5000
    calls = []

    def count_calls(k, x, active):
        calls.append(k)

    alone = run_batch(np.array([[1.0]]), steps, anti, q, sched, NoiseModel(), [0],
                      ceiling=1e3, observer=per_step(count_calls))
    stopped_after = len(calls)
    both = run_batch(np.array([[1.0], [0.0]]), steps, anti, q, sched, NoiseModel(),
                     [0, 1], ceiling=1e3, observer=per_step(count_calls))
    assert 0 < alone.diverged_at[0] < steps
    assert stopped_after == alone.diverged_at[0] - 1
    assert len(calls) - stopped_after == steps
    assert both.diverged_at[1] == -1
    assert alone.steps[-1] == steps and len(alone.steps) == len(both.steps)
    for name in ("consensus_error", "grad_norm", "final_states", "sup_state_norm",
                 "diverged_at"):
        assert np.array_equal(getattr(alone, name)[0], getattr(both, name)[0]), name


@pytest.mark.parametrize("kind", ["gaussian", "uniform-sphere"])
def test_draw_chunk_matches_per_agent_reference(kind):
    n, d, scale, seed = 3, 2, 0.3, 11
    gens = [np.random.default_rng(c) for c in np.random.SeedSequence(seed).spawn(n)]

    def reference(count):
        cols = []
        for gen in gens:
            block = gen.standard_normal((count, d))
            if kind == "uniform-sphere":
                norms = np.linalg.norm(block, axis=-1, keepdims=True)
                norms[norms == 0.0] = 1.0
                block = scale * block / norms
            else:
                block = scale * block
            cols.append(block)
        return np.stack(cols, axis=1)

    model = NoiseModel(kind, scale)
    chunked, single = model.start([seed], n, d), model.start([seed], n, d)
    draws = [chunked.draw_chunk(c) for c in (5, 0, 9, 1)]
    for got in draws:
        assert got.shape == (len(got), 1, n, d)
        assert got.flags.c_contiguous
        want = reference(len(got))
        assert got.tobytes() == want.tobytes()
    singles = np.stack([single.draw_chunk(1)[0] for _ in range(15)])
    assert np.concatenate(draws).tobytes() == singles.tobytes()


def _anti_quadratic_starts(scales):
    return np.asarray(scales, dtype=float)[:, None] * np.array([1.0, -0.5, 0.8, 0.3])


def _anti_quadratic_batch(scales, steps, chunk, ceiling, noise, k_start=1, record="geometric",
                          loss=None):
    """Rows of x(k+1) = (1 + alpha_k) x(k) - alpha_k (gamma_k Q x(k) + xi) on two
    agents, started at the given scales: a row crosses the ceiling sooner the
    larger it starts. Returns the batch, its observed sequence flattened per
    step, and the span of each observer call. `loss` stands in for the
    anti-quadratic's oracle (a wrapper around it)."""
    q = consensus_penalty(laplacian(path_graph(2)), 2)
    x0 = _anti_quadratic_starts(scales)
    calls, spans = [], []
    flatten = per_step(lambda k, x, active: calls.append((k, x.copy(), active.copy())))

    def observer(k_first, states, active):
        assert active.shape == (len(states), len(scales))
        spans.append(len(states))
        flatten(k_first, states, active)

    with mock.patch.object(engine, "CHUNK", chunk):
        batch = run_batch(x0, steps, loss or quadratic_form(-np.eye(4)), q, SCHED, noise,
                          range(len(scales)), record=record, ceiling=ceiling, n_agents=2,
                          k_start=k_start, observer=observer)
    return batch, calls, spans


def _assert_same_run(a, b):
    for f in dataclasses.fields(BatchRun):
        x, y = np.asarray(getattr(a[0], f.name)), np.asarray(getattr(b[0], f.name))
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), f.name
    assert len(a[1]) == len(b[1])
    for ca, cb in zip(a[1], b[1]):
        assert ca[0] == cb[0]
        assert ca[1].tobytes() == cb[1].tobytes() and np.array_equal(ca[2], cb[2])


GAUSS = NoiseModel("gaussian", 0.1)
KERNEL_CASES = {
    "none-diverges": dict(scales=[0.5, 1.0, 0.01], steps=700, ceiling=1e6, noise=GAUSS),
    "none-diverges-record-50": dict(scales=[0.5, 1.0], steps=600, ceiling=1e6, noise=GAUSS,
                                    record=50),
    "some-diverge": dict(scales=[1.0, 3.0, 0.01], steps=700, ceiling=200.0, noise=GAUSS,
                         k_start=3),
    "all-diverge": dict(scales=[1.0, 3.0], steps=2000, ceiling=200.0, noise=NoiseModel()),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_run_batch_is_the_same_for_every_chunk_size(case):
    spec = KERNEL_CASES[case]
    ref = _anti_quadratic_batch(chunk=1, **spec)
    # each observed step carries its own schedule index, consecutive from k_start
    k_start = spec.get("k_start", 1)
    assert [k for k, *_ in ref[1]] == list(range(k_start, k_start + len(ref[1])))
    diverged = ref[0].diverged_at
    if case.startswith("none"):
        assert np.all(diverged == -1)
    else:
        assert np.all(diverged[:2] > 0)
        assert np.all(diverged > 0) == (case == "all-diverge")
    chunks = {7, 256}
    # steps observed: all of them, or, once every row has crossed, those
    # before the last crossing
    observed = spec["steps"]
    if np.any(diverged > 0):
        # the first row to diverge does so on the last step of the first
        # chunk, then on the first step of the second chunk
        first = int(np.min(diverged[diverged > 0])) - spec.get("k_start", 1) + 1
        assert 2 < first < 256
        chunks |= {first, first - 1}
    if np.all(diverged > 0):
        # and so does the last row to diverge
        observed = int(np.max(diverged)) - spec.get("k_start", 1)
        chunks |= {observed, observed + 1}
    assert len(ref[1]) == observed
    for chunk in sorted(chunks):
        run = _anti_quadratic_batch(chunk=chunk, **spec)
        _assert_same_run(run, ref)
        # one observer call per chunk, the last one cut at the last crossing
        assert run[2] == [min(chunk, observed - k) for k in range(0, observed, chunk)]


def _observed_checkpoints(scales, steps, chunk, ceiling, noise, record):
    """A batch and the states a per-step observer saw at its checkpoints: the
    initial state at step 0, the observed state at a served step, and the
    states at the last served step (or the initial states) at a checkpoint
    past the last crossing, where every row is frozen."""
    batch, calls, _ = _anti_quadratic_batch(scales, steps, chunk, ceiling, noise,
                                            record=record)
    seen = {k: x for k, x, _ in calls}
    frozen = calls[-1][1] if calls else _anti_quadratic_starts(scales)
    want = [_anti_quadratic_starts(scales) if p == 0 else seen.get(p, frozen)
            for p in batch.steps]
    return batch, np.stack(want, axis=1)


NOISES = [NoiseModel(), GAUSS, NoiseModel("uniform-sphere", 0.1)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(scales=st.lists(st.sampled_from([0.01, 0.1, 1.0, 3.0]) | st.floats(0.01, 3.0),
                      min_size=1, max_size=3),
       steps=st.integers(1, 400),
       record=st.one_of(st.just("geometric"), st.integers(1, 60)),
       chunk=st.one_of(st.sampled_from([1, 7, 64, 256]), st.integers(1, 300)),
       ceiling=st.sampled_from([2.0, 20.0, 200.0, 1e12]),
       noise=st.sampled_from(NOISES))
@example(scales=[1.0, 3.0], steps=300, record=1, chunk=7, ceiling=20.0, noise=NOISES[1])
@example(scales=[0.01, 3.0, 1.0], steps=400, record=1, chunk=64, ceiling=200.0,
         noise=NOISES[1])
@example(scales=[3.0], steps=50, record=13, chunk=64, ceiling=2.0, noise=NOISES[0])
@example(scales=[0.5, 0.01], steps=0, record="geometric", chunk=1, ceiling=2.0,
         noise=NOISES[2])
def test_checkpoint_states_are_the_observed_states(scales, steps, record, chunk, ceiling,
                                                   noise):
    # byte for byte: each checkpoint's states are what a per-step observer saw
    # at that step, also when some or every row diverges
    batch, want = _observed_checkpoints(scales, steps, chunk, ceiling, noise, record)
    assert batch.states.shape == (len(scales), len(batch.steps), 4)
    assert batch.states.tobytes() == want.tobytes()
    assert batch.final_states.tobytes() == batch.states[:, -1].tobytes()
    # and so are a one-row batch's, the one-seed run
    alone, want = _observed_checkpoints(scales[:1], steps, chunk, ceiling, noise, record)
    assert alone.states.tobytes() == want.tobytes()
    assert alone.final_states.tobytes() == want[:, -1].tobytes()


class _CountingLoss:
    """An oracle wrapper that counts subgradient calls."""

    def __init__(self, loss):
        self.loss, self.calls = loss, 0

    def __getattr__(self, name):
        return getattr(self.loss, name)

    def subgradient(self, x):
        self.calls += 1
        return self.loss.subgradient(x)


@pytest.mark.parametrize("chunk", [1, 7, 256])
def test_run_batch_steps_each_chunk_once(chunk):
    # rows diverge mid-run and one stays: the oracle is called once per step
    # and once per checkpoint, so no chunk is stepped twice
    spec = KERNEL_CASES["some-diverge"]
    loss = _CountingLoss(quadratic_form(-np.eye(4)))
    batch, calls, _ = _anti_quadratic_batch(chunk=chunk, loss=loss, **spec)
    assert np.any(batch.diverged_at > 0) and np.any(batch.diverged_at == -1)
    assert len(calls) == spec["steps"]
    assert loss.calls == spec["steps"] + len(batch.steps)


def test_run_batch_allocates_its_schedule_weights_per_chunk():
    # a 10**7-step run holds no whole-run array of weights (one would be
    # 80 MB): up to the first chunk's observer call, allocations stay small
    class Stop(Exception):
        pass

    def observer(*_):
        raise Stop

    q = consensus_penalty(laplacian(path_graph(2)), 2)
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            run_batch(np.ones((4, 4)), 10 ** 7, zero_loss(4), q, SCHED, NoiseModel(),
                      range(4), n_agents=2, observer=observer)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("chunk", [1, 7, 256])
@pytest.mark.parametrize("kind", ["gaussian", "uniform-sphere"])
def test_run_batch_draws_each_seeds_own_noise(monkeypatch, kind, chunk):
    # x(k+1) = x(k) - alpha_k xi(k+1) exactly: a zero loss and a zero penalty
    n, d, steps, ceiling = 2, 2, 300, 1.0
    model = NoiseModel(kind, 0.3)
    seeds = [3, 11, 0, 7, 5]
    # rows that start near the ceiling cross it within the run
    x0 = np.array([0.0, 0.99, 0.2, 0.995, 0.0])[:, None] * np.array([0.5, 0.5, 0.5, 0.5])
    draws, calls = [], []
    chunk_of = _NoiseProducer.chunk

    # the draws happen in the producer's child; spy on the chunks the parent receives
    def spy(producer, i):
        out = chunk_of(producer, i)
        draws.append(out.copy())
        return out

    monkeypatch.setattr(_NoiseProducer, "chunk", spy)
    monkeypatch.setattr(engine, "CHUNK", chunk)
    batch = run_batch(x0, steps, zero_loss(n * d), penalty_from_matrix(np.zeros((4, 4))),
                      SCHED, model, seeds, ceiling=ceiling,
                      n_agents=n, observer=per_step(lambda k, x, active:
                                                    calls.append(x.copy())))
    monkeypatch.undo()
    assert len(draws) == -(-steps // chunk)
    drawn = np.concatenate(draws)
    assert drawn.shape == (steps, len(seeds), n, d)
    diverged = batch.diverged_at
    assert np.any(diverged > 0) and np.any(diverged == -1)
    for row, seed in enumerate(seeds):
        stream = model.start([seed], n, d)
        own = np.concatenate([stream.draw_chunk(len(part)) for part in draws])
        assert own.tobytes() == drawn[:, row].tobytes()
        x = x0[row].copy()
        for k in range(1, steps + 1):
            new = x - SCHED.alpha(k) * own[k - 1].ravel()
            if not np.linalg.norm(new) <= ceiling:
                assert diverged[row] == k
                break
            x = new
            assert calls[k - 1][row].tobytes() == x.tobytes()
        else:
            assert diverged[row] == -1
        # a diverged row stays at its last finite state
        frozen = calls[diverged[row] - 1:] if diverged[row] > 0 else []
        assert all(c[row].tobytes() == x.tobytes() for c in frozen)
        assert batch.final_states[row].tobytes() == x.tobytes()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_batch_whose_rows_all_diverge_in_the_first_chunk_leaves_no_producer():
    batch, _, spans = _anti_quadratic_batch([1.0, 3.0], 5000, 256, 200.0, GAUSS)
    assert len(spans) == 1
    assert np.all((batch.diverged_at > 0) & (batch.diverged_at <= 256))
    _assert_no_child_left()


def test_run_batch_with_no_rows_forks_no_producer(monkeypatch):
    def no_fork():
        raise AssertionError("a run with no rows forked")

    monkeypatch.setattr(os, "fork", no_fork)
    batch, calls, _ = _anti_quadratic_batch([], 600, 256, 1e6, GAUSS)
    assert batch.states.shape == (0, len(batch.steps), 4) and calls == []


@pytest.mark.parametrize("failure", ["raises", "exits"])
def test_run_batch_raises_the_producers_failure(monkeypatch, failure):
    # the draw fails in the child, on its third chunk, while the parent steps
    draw_chunk, drawn = NoiseStream.draw_chunk, []

    def failing(stream, count, out=None):
        if len(drawn) == 2:
            if failure == "exits":
                os._exit(3)
            raise ValueError("no noise for this chunk")
        drawn.append(count)
        return draw_chunk(stream, count, out)

    monkeypatch.setattr(NoiseStream, "draw_chunk", failing)
    error, match = ((ValueError, "no noise for this chunk") if failure == "raises"
                    else (RuntimeError, "exited with status 3"))
    with pytest.raises(error, match=match):
        _anti_quadratic_batch([0.01], 1000, 16, 1e6, GAUSS)
    _assert_no_child_left()


def test_run_batch_forks_without_the_multithreaded_fork_warning(monkeypatch):
    # Python 3.12+ warns on a fork in a process with threads (OpenBLAS's count);
    # that warning, and only that one, is silenced around the producer's fork
    fork = os.fork

    def warning_fork(message):
        def forked():
            warnings.warn(message, DeprecationWarning, stacklevel=2)
            return fork()
        return forked

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        monkeypatch.setattr(os, "fork", warning_fork(
            "This process (pid=1) is multi-threaded, use of fork() may lead to "
            "deadlocks in the child."))
        _anti_quadratic_batch([0.01], 40, 16, 1e6, GAUSS)
        monkeypatch.setattr(os, "fork", warning_fork("fork() is deprecated"))
        with pytest.raises(DeprecationWarning, match="fork"):
            _anti_quadratic_batch([0.01], 40, 16, 1e6, GAUSS)
    _assert_no_child_left()


def _running(pid):
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process states from /proc")
def test_a_killed_run_leaves_no_producer():
    # the run prints its producer's pid, then a line once it steps; killed
    # there, it leaves the producer blocked on a pipe whose other end is gone
    script = textwrap.dedent("""
        import os
        import numpy as np
        from dsgdlab.engine import NoiseModel, run_batch
        from dsgdlab.graphs import consensus_penalty, laplacian, path_graph
        from dsgdlab.losses import zero_loss
        from dsgdlab.schedules import Schedule

        fork = os.fork

        def announced_fork():
            pid = fork()
            if pid:
                print(pid, flush=True)
            return pid

        os.fork = announced_fork

        def observer(k_first, states, active):
            print("stepping", flush=True)

        run_batch(np.zeros((50, 4)), 10**6, zero_loss(4),
                  consensus_penalty(laplacian(path_graph(2)), 2), Schedule(1.0, 1.0, 0.5, 0.6),
                  NoiseModel("gaussian", 0.1), range(50), n_agents=2, observer=observer)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONPATH": src})
    try:
        producer = int(proc.stdout.readline())
        assert proc.stdout.readline() == "stepping\n"
        assert _running(producer)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
        proc.stdout.close()
    deadline = time.monotonic() + 5.0
    while _running(producer) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not _running(producer)
    _assert_no_child_left()
