import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsgdlab.engine import (
    BatchRun,
    NoiseModel,
    NoiseStream,
    agentwise_step,
    boundedness_probe,
    general_step,
    network_mean_residual,
    per_step,
    rate_check_kar,
    row_norms,
    run,
    run_agentwise,
    run_batch,
    technical_inner_product,
)
from dsgdlab.errors import DivergedError
from dsgdlab.graphs import (
    Graph,
    consensus_penalty,
    constraint_rotation,
    laplacian,
    path_graph,
    penalty_from_matrix,
)
from dsgdlab.losses import (
    custom_loss,
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
    stream = NoiseModel().start(2, 1)
    new = general_step(x, 1, losses.assembled, q, sched, stream)
    assert np.allclose(new, [0.5, 0.5])


def test_fixed_point_is_fixed():
    q, losses = consensus_problem(3, 2)
    x = np.tile([0.3, -0.7], 3)  # consensual, zero loss: v = 0 and Qx = 0
    stream = NoiseModel().start(3, 2)
    new = general_step(x, 5, losses.assembled, q, SCHED, stream)
    assert np.array_equal(new, x)


def test_plain_descent_step_hand_case():
    loss = quadratic_saddle([1.0, -1.0])
    q = penalty_from_matrix(np.zeros((2, 2)))
    sched = Schedule(0.1, 1.0, 1.0, 0.6)  # alpha_1 = 0.1
    stream = NoiseModel().start(1, 2)
    new = general_step(np.array([1.0, 1.0]), 1, loss, q, sched, stream)
    assert np.allclose(new, [0.9, 1.1])


def test_general_step_detects_divergence():
    loss = custom_loss(1, lambda x: np.zeros(np.shape(x)[:-1]),
                       lambda x: np.full_like(np.asarray(x, float), np.inf))
    q = penalty_from_matrix(np.zeros((1, 1)))
    with pytest.raises(DivergedError) as err:
        general_step(np.array([1.0]), 3, loss, q, SCHED, NoiseModel().start(1, 1))
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
        noise = NoiseModel("gaussian", 0.5, seed=int(rng.integers(1 << 30)))
        x0 = rng.standard_normal((n, d))

        s_a = noise.start(n, d)
        s_g = noise.start(n, d)
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
    stream = NoiseModel().start(4, 2)
    mean0 = x.mean(axis=0)
    for k in range(1, 200):
        x = agentwise_step(x, k, losses, g, SCHED, stream)
        assert np.allclose(x.mean(axis=0), mean0, atol=1e-13)


def test_two_agent_quadratics_reach_sum_minimizer():
    # f1 = (x-1)^2/2, f2 = (x+1)^2/2: the sum is minimized at 0. The agents'
    # disagreement floor is Theta(1/gamma_k); the network mean contracts fast.
    losses = sum_loss([shifted_quadratic([1.0]), shifted_quadratic([-1.0])])
    g = path_graph(2)
    traj = run_agentwise(np.array([[2.0], [-0.5]]), 100_000, losses, g,
                         Schedule(1.0, 1.0, 0.5, 0.6))
    assert abs(traj.final_state.mean()) < 1e-4
    assert np.linalg.norm(traj.final_state) < 5e-3
    assert traj.consensus_error[-1] < 5e-3


def test_run_zero_steps_contains_initial_state_only():
    q, losses = consensus_problem(2, 1)
    traj = run(np.array([1.0, 0.0]), 0, losses.assembled, q, SCHED, record_state=True)
    assert len(traj) == 1
    assert traj.steps[0] == 0
    assert np.array_equal(traj.states[0], [1.0, 0.0])


def test_run_determinism_same_seed():
    q, losses = consensus_problem(3, 1)
    noise = NoiseModel("gaussian", 0.3, seed=9)
    a = run(np.array([1.0, 0.0, -1.0]), 500, losses.assembled, q, SCHED, noise,
            record_state=True, n_agents=3)
    b = run(np.array([1.0, 0.0, -1.0]), 500, losses.assembled, q, SCHED, noise,
            record_state=True, n_agents=3)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.consensus_error, b.consensus_error)


def test_run_agentwise_equals_run_general_whole_trajectory():
    rng = np.random.default_rng(5)
    n, d = 3, 2
    g = path_graph(n)
    losses = random_agent_losses(rng, n, d)
    q = consensus_penalty(laplacian(g), d)
    noise = NoiseModel("uniform-sphere", 0.4, seed=77)
    x0 = rng.standard_normal((n, d))
    ta = run_agentwise(x0, 300, losses, g, SCHED, noise, record=1, record_state=True)
    tg = run(x0.ravel(), 300, losses.assembled, q, SCHED, noise, record=1,
             record_state=True, n_agents=n)
    assert np.max(np.abs(ta.states - tg.states)) < 1e-12


def test_consensus_error_decays_with_zero_loss():
    q, losses = consensus_problem(5, 2)
    noise = NoiseModel("gaussian", 0.1, seed=3)
    x0 = np.random.default_rng(1).standard_normal(10)
    traj = run(x0, 100_000, losses.assembled, q, SCHED, noise, n_agents=5)
    idx_1e3 = np.searchsorted(traj.steps, 1000)
    assert traj.consensus_error[-1] < 1e-3
    assert traj.consensus_error[-1] < traj.consensus_error[idx_1e3]


def test_expected_one_step_update_matches_drift():
    # averaging over draws converges to x - alpha (grad + gamma Q x) at MC rate
    loss = quadratic_form(np.diag([1.0, 2.0]), [0.3, -0.1])
    q = penalty_from_matrix(np.diag([0.0, 1.0]))
    x = np.array([0.7, -0.4])
    k = 10
    sigma = 0.5
    n_draws = 40_000
    stream = NoiseModel("gaussian", sigma, seed=11).start(1, 2)
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
        stream = NoiseModel(kind, 1.0, seed=5).start(2, 3)
        draws = stream.draw_chunk(4000).reshape(4000, 6)
        assert np.max(np.abs(draws.mean(axis=0))) < 0.05
        second_moment = np.mean(np.sum(draws ** 2, axis=1))
        assert second_moment < 10.0
        for _ in range(5):
            theta = rng.standard_normal(6)
            theta /= np.linalg.norm(theta)
            positive_part = np.maximum(draws @ theta, 0.0).mean()
            assert positive_part > 0.1


def test_noise_restricted_to_constraint_directions():
    q, losses = consensus_problem(3, 2)
    from dsgdlab.graphs import constraint_rotation
    rot = constraint_rotation(q)
    noise = NoiseModel("gaussian", 1.0, seed=4, restrict_to_constraint=True)
    stream = noise.start(3, 2, rot)
    for _ in range(10):
        draw = stream.draw().ravel()
        assert np.linalg.norm(rot.off_constraint_part(draw)) < 1e-12


def test_technical_inner_product_positive_for_coercive_losses():
    loss = quadratic_form(np.eye(3))
    q = penalty_from_matrix(np.diag([0.0, 1.0, 2.0]))
    rng = np.random.default_rng(8)
    # threshold: alpha_k gamma_k lambda_max small enough, per the two-case bound
    for k in (1000, 10_000, 100_000):
        for _ in range(50):
            x = rng.standard_normal(3)
            x *= (1.0 + 9.0 * rng.random()) / np.linalg.norm(x)  # ||x|| in [1, 10]
            v = loss.subgradient(x)
            val = technical_inner_product(x, v, q, float(SCHED.alpha(k)),
                                          float(SCHED.gamma(k)))
            assert val > 0


def test_boundedness_probe_coercive_and_anticoercive():
    loss = quadratic_form(np.eye(2))
    q = penalty_from_matrix(np.zeros((2, 2)))
    noise = NoiseModel("gaussian", 1.0, seed=0)
    traj = run(np.array([5.0, -3.0]), 100_000, loss, q, SCHED, noise)
    rep = boundedness_probe(traj, ceiling=1e3)
    assert rep.within_bound

    anti = quadratic_form(-np.eye(2))
    with pytest.raises(DivergedError):
        run(np.array([1.0, 0.0]), 500_000, anti, q, Schedule(1.0, 1.0, 0.5, 0.6),
            ceiling=1e3)


def test_boundedness_pure_consensus_norm_nonincreasing():
    q, losses = consensus_problem(4, 1)
    x0 = np.array([3.0, -1.0, 2.0, 0.0])
    traj = run(x0, 10_000, losses.assembled, q, SCHED)
    assert traj.sup_state_norm <= np.linalg.norm(x0) + 1e-12
    rep = boundedness_probe(traj, ceiling=np.linalg.norm(x0) + 1e-9)
    assert rep.within_bound


def test_network_mean_residual_identity_and_gap():
    rng = np.random.default_rng(12)
    n, d = 4, 2
    losses = sum_loss([shifted_quadratic(rng.standard_normal(d)) for _ in range(n)])
    g = path_graph(n)
    noise = NoiseModel("gaussian", 0.2, seed=21)
    traj = run_agentwise(rng.standard_normal((n, d)), 400, losses, g, SCHED, noise,
                         record=1, record_state=True, record_noise=True)
    rep = network_mean_residual(traj, losses, SCHED)
    assert np.max(rep.identity_residual) < 1e-12
    # gap bounded by Lipschitz(grad f_n) * max_n ||x_n - mean||; here Lip = 1
    blocks = traj.states.reshape(-1, n, d)
    spread = np.linalg.norm(blocks - blocks.mean(axis=1, keepdims=True), axis=2).max(axis=1)
    assert np.all(rep.approximation_gap <= spread[:-1] + 1e-12)
    # at consensus the gap vanishes
    consensual = np.tile(rng.standard_normal(d), (n, 1))
    traj2 = run_agentwise(consensual, 1, losses, g, SCHED, record=1,
                          record_state=True, record_noise=True)
    rep2 = network_mean_residual(traj2, losses, SCHED)
    assert rep2.approximation_gap[0] < 1e-14


def test_rate_check_kar_immediate_kill():
    # r1(0) = 1 wipes z in one step and nothing is re-injected
    rep = rate_check_kar(a1=1.0, delta1=0.0, a2=0.0, delta2=1.0, delta0=0.5,
                         z0=3.0, steps=100)
    assert rep.z_final == 0.0
    assert rep.converges


def test_rate_check_kar_decay():
    # quasi-stationary level r2/r1 = (k+1)^(delta1-delta2) makes the rescaled
    # tail behave like (k+1)^(delta0-(delta2-delta1)); check both the envelope
    # at delta0 = 0.5 and the faster-rescaled variant reaching 0.01
    rep = rate_check_kar(a1=1.0, delta1=0.4, a2=1.0, delta2=1.0, delta0=0.5,
                         z0=1.0, steps=1_000_000)
    assert rep.converges
    assert rep.scaled_limit == pytest.approx(1e6 ** -0.1, rel=0.1)
    rep_fast = rate_check_kar(a1=1.0, delta1=0.4, a2=1.0, delta2=1.0, delta0=0.2,
                              z0=1.0, steps=1_000_000)
    assert rep_fast.scaled_limit < 0.01
    assert rep_fast.converges


def test_rate_check_kar_monotone_without_forcing():
    rep = rate_check_kar(a1=0.5, delta1=0.3, a2=0.0, delta2=1.0, delta0=0.0,
                         z0=2.0, steps=200)
    assert 0.0 <= rep.z_final <= 2.0


def test_rate_check_kar_rejects_bad_params():
    with pytest.raises(ValueError):
        rate_check_kar(a1=1.0, delta1=1.2, a2=1.0, delta2=2.0, delta0=0.1, z0=1.0, steps=10)
    with pytest.raises(ValueError):
        rate_check_kar(a1=1.0, delta1=0.5, a2=1.0, delta2=0.4, delta0=0.0, z0=1.0, steps=10)
    with pytest.raises(ValueError):
        rate_check_kar(a1=1.0, delta1=0.2, a2=1.0, delta2=1.0, delta0=0.9, z0=1.0, steps=10)


def test_run_batch_rows_match_single_runs():
    rng = np.random.default_rng(31)
    n, d = 3, 2
    g = path_graph(n)
    losses = random_agent_losses(rng, n, d)
    q = consensus_penalty(laplacian(g), d)
    noise = NoiseModel("gaussian", 0.3)
    x0 = rng.standard_normal(n * d)
    seeds = [5, 17, 99]
    batch = run_batch(x0, 200, losses.assembled, q, SCHED, noise, seeds,
                      n_agents=n, chunk=64)
    for row, seed in enumerate(seeds):
        single = run(x0, 200, losses.assembled, q, SCHED,
                     NoiseModel("gaussian", 0.3, seed=seed), n_agents=n)
        assert np.linalg.norm(batch.final_states[row] - single.final_state) < 1e-12
        assert abs(batch.consensus_error[row, -1] - single.consensus_error[-1]) < 1e-12


def test_run_batch_divergence_recorded_not_fatal():
    anti = quadratic_form(-np.eye(1))
    q = penalty_from_matrix(np.zeros((1, 1)))
    ok = quadratic_form(np.eye(1))
    batch = run_batch(np.array([1.0]), 30_000, anti, q, Schedule(1.0, 1.0, 0.5, 0.6),
                      NoiseModel(), [0, 1], ceiling=1e3)
    assert np.all(batch.diverged_at > 0)
    batch_ok = run_batch(np.array([1.0]), 1000, ok, q, SCHED, NoiseModel(), [0])
    assert np.all(batch_ok.diverged_at == -1)


def test_run_batch_steps_match_agentwise_form():
    # the kernel every campaign runs follows the paper's agentwise recursion at
    # every step, row by row, on the three loss families of acceptance 01
    rng = np.random.default_rng(7)
    sched = Schedule(0.3, 0.9, 0.4, 0.6)
    steps = 30
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
                          NoiseModel("gaussian", 0.5), seeds, n_agents=n, chunk=8,
                          observer=per_step(lambda k, zeta, x, active:
                                            states.append(x.copy())))
        assert len(states) == steps and np.all(batch.diverged_at == -1)
        for row, seed in enumerate(seeds):
            stream = NoiseModel("gaussian", 0.5, seed=seed).start(n, dim)
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

    def count_calls(k, zeta, x, active):
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
    for name in ("consensus_error", "grad_norm", "state_norm", "final_states",
                 "sup_state_norm", "diverged_at"):
        assert np.array_equal(getattr(alone, name)[0], getattr(both, name)[0]), name


@pytest.mark.parametrize("kind, restrict", [("gaussian", False), ("uniform-sphere", False),
                                            ("gaussian", True), ("uniform-sphere", True)])
def test_draw_chunk_matches_per_agent_reference(kind, restrict):
    n, d, scale, seed = 3, 2, 0.3, 11
    rotation = constraint_rotation(consensus_penalty(laplacian(path_graph(n)), d))
    basis = rotation.constraint_basis
    projector = basis @ basis.T
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
        out = np.stack(cols, axis=1)
        if restrict:
            flat = out.reshape(count, -1)
            acc = flat[:, 0, None] * projector.T[0]
            for j in range(1, n * d):
                acc = acc + flat[:, j, None] * projector.T[j]
            out = acc.reshape(count, n, d)
        return out

    model = NoiseModel(kind, scale, seed, restrict)
    chunked, single = model.start(n, d, rotation), model.start(n, d, rotation)
    draws = [chunked.draw_chunk(c) for c in (5, 9, 1)]
    for got in draws:
        assert got.shape == (len(got), n, d)
        want = reference(len(got))
        assert got.tobytes() == want.tobytes()
    singles = np.stack([single.draw() for _ in range(15)])
    assert np.concatenate(draws).tobytes() == singles.tobytes()


def _anti_quadratic_batch(scales, steps, chunk, ceiling, noise, k_start=1, record="geometric",
                          loss=None):
    """Rows of x(k+1) = (1 + alpha_k) x(k) - alpha_k (gamma_k Q x(k) + xi) on two
    agents, started at the given scales: a row crosses the ceiling sooner the
    larger it starts. Returns the batch, its observed sequence flattened per
    step, and the span of each observer call. `loss` stands in for the
    anti-quadratic's oracle (a wrapper around it)."""
    q = consensus_penalty(laplacian(path_graph(2)), 2)
    x0 = np.asarray(scales, dtype=float)[:, None] * np.array([1.0, -0.5, 0.8, 0.3])
    calls, spans = [], []
    flatten = per_step(lambda k, zeta, x, active:
                       calls.append((k, zeta, x.copy(), active.copy())))

    def observer(k_first, zetas, states, active):
        assert len(zetas) == len(states)
        assert active.shape == (len(states), len(scales))
        spans.append(len(states))
        flatten(k_first, zetas, states, active)

    batch = run_batch(x0, steps, loss or quadratic_form(-np.eye(4)), q, SCHED, noise,
                      range(len(scales)), record=record, ceiling=ceiling, chunk=chunk,
                      n_agents=2, k_start=k_start, observer=observer)
    return batch, calls, spans


def _assert_same_run(a, b):
    for f in dataclasses.fields(BatchRun):
        x, y = np.asarray(getattr(a[0], f.name)), np.asarray(getattr(b[0], f.name))
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), f.name
    assert len(a[1]) == len(b[1])
    for ca, cb in zip(a[1], b[1]):
        assert ca[:2] == cb[:2]
        assert ca[2].tobytes() == cb[2].tobytes() and np.array_equal(ca[3], cb[3])


GAUSS = NoiseModel("gaussian", 0.1)
KERNEL_CASES = {
    "none-diverges": dict(scales=[0.5, 1.0, 0.01], steps=700, ceiling=1e6, noise=GAUSS),
    "none-diverges-restricted": dict(scales=[0.5, 1.0], steps=600, ceiling=1e6,
                                     noise=NoiseModel("gaussian", 0.1, 0, True),
                                     record=50),
    "some-diverge": dict(scales=[1.0, 3.0, 0.01], steps=700, ceiling=200.0, noise=GAUSS,
                         k_start=3),
    "all-diverge": dict(scales=[1.0, 3.0], steps=2000, ceiling=200.0, noise=NoiseModel()),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_run_batch_is_the_same_for_every_chunk_size(case):
    spec = KERNEL_CASES[case]
    ref = _anti_quadratic_batch(chunk=1, **spec)
    # each observed step carries its own index and the elapsed time after it
    at = {int(k) + spec.get("k_start", 1) - 1: z for k, z in zip(ref[0].steps, ref[0].zeta)}
    seen = [zeta == at[k] for k, zeta, *_ in ref[1] if k in at]
    assert len(seen) > 1 and all(seen)
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


def test_run_batch_rejects_an_empty_chunk():
    with pytest.raises(ValueError, match="chunk"):
        _anti_quadratic_batch([1.0], 10, 0, 1e6, NoiseModel())


@pytest.mark.parametrize("chunk", [1, 7, 256])
@pytest.mark.parametrize("kind, restrict", [("gaussian", False), ("uniform-sphere", False),
                                            ("gaussian", True)])
def test_run_batch_draws_each_seeds_own_noise(monkeypatch, kind, restrict, chunk):
    # x(k+1) = x(k) - alpha_k xi(k+1) exactly: a zero loss and a zero penalty,
    # with the path graph's rotation so that restricted noise is projected
    n, d, steps, ceiling = 2, 2, 300, 1.0
    rotation = constraint_rotation(consensus_penalty(laplacian(path_graph(n)), d))
    model = NoiseModel(kind, 0.3, 0, restrict)
    seeds = [3, 11, 0, 7, 5]
    # rows that start near the ceiling cross it within the run
    x0 = np.array([0.0, 0.99, 0.2, 0.995, 0.0])[:, None] * np.array([0.5, 0.5, 0.5, 0.5])
    draws, calls = [], []
    draw_chunk = NoiseStream.draw_chunk

    def spy(stream, count):
        out = draw_chunk(stream, count)
        draws.append(out.copy())
        return out

    monkeypatch.setattr(NoiseStream, "draw_chunk", spy)
    batch = run_batch(x0, steps, zero_loss(n * d), penalty_from_matrix(np.zeros((4, 4))),
                      SCHED, model, seeds, rotation=rotation, ceiling=ceiling, chunk=chunk,
                      n_agents=n, observer=per_step(lambda k, zeta, x, active:
                                                    calls.append(x.copy())))
    monkeypatch.undo()
    assert len(draws) == -(-steps // chunk)
    drawn = np.concatenate(draws)
    assert drawn.shape == (steps, len(seeds), n, d)
    diverged = batch.diverged_at
    assert np.any(diverged > 0) and np.any(diverged == -1)
    for row, seed in enumerate(seeds):
        stream = model.start(n, d, rotation, seed=seed)
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
