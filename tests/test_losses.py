import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dsgdlab.losses import (
    LossOracle,
    _derivative_terms,
    check_coercivity,
    finite_difference_gradient,
    l1_regularized,
    polynomial,
    quadratic_form,
    quadratic_saddle,
    relu_regression,
    separable_polynomial,
    shifted_quadratic,
    sum_loss,
    zero_loss,
)


def fd_hessian(loss, x, step=1e-5):
    x = np.asarray(x, dtype=float)
    n = len(x)
    h = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        h[:, i] = (loss.subgradient(x + e) - loss.subgradient(x - e)) / (2 * step)
    return 0.5 * (h + h.T)


def test_quadratic_saddle_values():
    loss = quadratic_saddle([1.0, -1.0])
    assert loss.value(np.array([1.0, 1.0])) == pytest.approx(0.0)
    assert np.allclose(loss.subgradient(np.array([1.0, 1.0])), [1.0, -1.0])
    assert np.allclose(loss.subgradient(np.zeros(2)), 0.0)
    hess = loss.hessian(np.zeros(2))
    assert np.allclose(hess, np.diag([1.0, -1.0]))
    assert np.linalg.det(hess) != 0


def test_quadratic_saddle_hand_case():
    loss = quadratic_saddle([2.0, 3.0, -1.0])
    x = np.array([1.0, 0.0, 2.0])
    assert loss.value(x) == pytest.approx(-1.0)
    assert np.allclose(loss.subgradient(x), [2.0, 0.0, -2.0])
    assert np.allclose(finite_difference_gradient(loss, x), [2.0, 0.0, -2.0], atol=1e-8)


def test_quadratic_saddle_rejects_bad_curvatures():
    with pytest.raises(ValueError):
        quadratic_saddle([1.0, 0.0])
    with pytest.raises(ValueError):
        quadratic_saddle([1.0, 2.0])


def test_l1_basic():
    loss = l1_regularized(zero_loss(2), 1.0)
    x = np.array([2.0, -3.0])
    assert loss.value(x) == pytest.approx(5.0)
    assert np.allclose(loss.subgradient(x), [1.0, -1.0])


def test_l1_kink_selection_is_zero():
    loss = l1_regularized(zero_loss(1), 1.0)
    assert loss.subgradient(np.array([0.0]))[0] == 0.0


def test_l1_with_quadratic_base():
    base = quadratic_form(np.eye(1))
    loss = l1_regularized(base, 2.0)
    x = np.array([1.0])
    assert loss.value(x) == pytest.approx(2.5)
    assert np.allclose(loss.subgradient(x), [3.0])
    assert np.allclose(finite_difference_gradient(loss, x), [3.0], atol=1e-8)


def test_l1_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        l1_regularized(zero_loss(1), 0.0)


def test_l1_away_from_kink_fd():
    loss = l1_regularized(zero_loss(1), 1.0)
    g = finite_difference_gradient(loss, np.array([0.5]))
    assert g[0] == pytest.approx(1.0, abs=1e-8)


def test_relu_single_linear_neuron():
    loss = relu_regression(inputs=[[1.0]], targets=[0.0], widths=())
    theta = np.array([2.0])
    assert loss.value(theta) == pytest.approx(2.0)
    assert np.allclose(loss.subgradient(theta), [2.0])
    assert np.allclose(finite_difference_gradient(loss, theta), [2.0], atol=1e-6)


def test_relu_zero_params_zero_targets():
    loss = relu_regression(inputs=[[0.3, -0.7], [1.0, 0.4]], targets=[0.0, 0.0],
                           widths=(3,))
    theta = np.zeros(loss.dim)
    assert loss.value(theta) == pytest.approx(0.0)
    assert np.allclose(loss.subgradient(theta), 0.0)


def test_relu_dead_unit_has_zero_hidden_subgradient():
    # one hidden unit; weight chosen so the preactivation is negative on all samples
    loss = relu_regression(inputs=[[1.0], [2.0]], targets=[1.0, 1.0], widths=(1,))
    theta = np.array([-1.0, 3.0])  # hidden weight -1 (dead), output weight 3
    g = loss.subgradient(theta)
    assert g[0] == 0.0


def test_relu_gradient_matches_fd_at_smooth_point():
    rng = np.random.default_rng(0)
    loss = relu_regression(inputs=rng.standard_normal((5, 3)),
                           targets=rng.standard_normal(5), widths=(4, 2))
    theta = rng.standard_normal(loss.dim)
    g = loss.subgradient(theta)
    fd = finite_difference_gradient(loss, theta, step=1e-6)
    assert np.linalg.norm(g - fd) <= 1e-4 * (1.0 + np.linalg.norm(g))


def test_relu_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        relu_regression(inputs=[[1.0, 2.0]], targets=[0.0, 1.0])


def test_shifted_quadratic_value_is_half_the_squared_distance():
    anchor = np.array([1.0, -2.0])
    loss = shifted_quadratic(anchor)
    assert loss.value(anchor) == 0.0
    rng = np.random.default_rng(4)
    xs = rng.standard_normal((20, 2)) * 3.0
    want = 0.5 * np.linalg.norm(xs - anchor, axis=1) ** 2
    assert np.max(np.abs(loss.value(xs) - want)) < 1e-12
    assert np.array_equal(loss.subgradient(xs), xs @ np.eye(2) - anchor)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False),
                          st.sampled_from([0.0, -0.0, 1.5, -2.0])), min_size=1, max_size=6))
def test_shifted_quadratic_gradient_matches_the_product_with_identity(pairs):
    # x - a has the bits of the quadratic form's x @ I + (-a) on finite rows,
    # except where x_k = -0 and a_k = +0: the product sums from +0, so it gives
    # +0 there, and x - a gives -0
    x, a = (np.array(col) for col in zip(*pairs))
    got = shifted_quadratic(a).subgradient(x)
    want = quadratic_form(np.eye(len(a)), -a).subgradient(x)
    assert got.tobytes() == (x - a).tobytes()
    zero_gap = (x == 0.0) & np.signbit(x) & (a == 0.0) & ~np.signbit(a)
    assert np.all(np.signbit(got[zero_gap])) and not np.any(np.signbit(want[zero_gap]))
    assert got[~zero_gap].tobytes() == want[~zero_gap].tobytes()


def test_shifted_quadratic_gradient_keeps_a_non_finite_entry_in_its_slot():
    # the product with I spreads inf and NaN across the row (inf * 0 is NaN);
    # x - a leaves every other entry finite
    a = np.array([0.0, 1.5, -2.0])
    x = np.array([[np.inf, 1.0, 2.0], [1.0, np.nan, 2.0]])
    got = shifted_quadratic(a).subgradient(x)
    with np.errstate(invalid="ignore"):
        want = quadratic_form(np.eye(3), -a).subgradient(x)
    assert got.tobytes() == (x - a).tobytes()
    assert np.isnan(want).all(axis=1).tolist() == [False, True]
    assert np.isnan(want[0, 1:]).all() and want[0, 0] == np.inf
    assert np.isfinite(got).sum(axis=1).tolist() == [2, 2]


def test_sum_loss_blockwise_assembly():
    rng = np.random.default_rng(1)
    comps = [shifted_quadratic(rng.standard_normal(3)) for _ in range(4)]
    sl = sum_loss(comps)
    for _ in range(10):
        x = rng.standard_normal(12)
        blocks = x.reshape(4, 3)
        expect_val = sum(c.value(blocks[i]) for i, c in enumerate(comps))
        expect_grad = np.concatenate([c.subgradient(blocks[i]) for i, c in enumerate(comps)])
        assert sl.assembled.value(x) == pytest.approx(expect_val, rel=1e-15, abs=1e-15)
        assert np.array_equal(sl.assembled.subgradient(x), expect_grad)


def test_sum_loss_hessian_block_diagonal():
    comps = [quadratic_form(np.array([[2.0, 1.0], [1.0, 3.0]])), shifted_quadratic([0.0, 0.0])]
    sl = sum_loss(comps)
    h = sl.assembled.hessian(np.zeros(4))
    assert np.allclose(h[:2, :2], [[2, 1], [1, 3]])
    assert np.allclose(h[2:, 2:], np.eye(2))
    assert np.allclose(h[:2, 2:], 0.0)


def test_smooth_losses_match_fd_on_random_points():
    rng = np.random.default_rng(2)
    losses = [
        quadratic_saddle([1.0, -2.0, 0.5]),
        quadratic_form(np.array([[2.0, 0.3], [0.3, 1.0]]), [0.1, -0.2]),
        separable_polynomial({0: {2: 0.5}, 1: {2: -0.5, 3: 0.1}}, dim=2),
    ]
    for loss in losses:
        for _ in range(10):
            x = rng.standard_normal(loss.dim)
            g = loss.subgradient(x)
            fd = finite_difference_gradient(loss, x)
            assert np.linalg.norm(g - fd) <= 1e-4 * (1.0 + np.linalg.norm(g))


def test_hessians_match_fd_of_gradient():
    rng = np.random.default_rng(3)
    losses = [
        quadratic_saddle([1.0, -1.0]),
        separable_polynomial({0: {2: 0.5}, 1: {2: -0.5, 4: 0.25}}, dim=2),
    ]
    for loss in losses:
        for _ in range(5):
            x = rng.standard_normal(loss.dim)
            h = loss.hessian(x)
            approx = fd_hessian(loss, x)
            assert np.max(np.abs(h - approx)) <= 1e-4 * (1.0 + np.max(np.abs(h)))


def test_chain_rule_along_smooth_path():
    # d/dt h(z(t)) integrates to h(z(1)) - h(z(0)) when the selection is the gradient
    loss = separable_polynomial({0: {2: 0.5, 3: 0.2}, 1: {2: 1.0}}, dim=2)

    def z(t):
        return np.array([np.cos(t), np.sin(2 * t)])

    def zdot(t):
        return np.array([-np.sin(t), 2 * np.cos(2 * t)])

    ts = np.linspace(0.0, 1.0, 2001)
    integrand = np.array([loss.subgradient(z(t)) @ zdot(t) for t in ts])
    # composite Simpson
    h = ts[1] - ts[0]
    integral = h / 3 * (integrand[0] + integrand[-1]
                        + 4 * integrand[1:-1:2].sum() + 2 * integrand[2:-1:2].sum())
    assert integral == pytest.approx(loss.value(z(1.0)) - loss.value(z(0.0)), abs=1e-8)


def test_coercivity_pure_quadratic():
    loss = quadratic_form(np.eye(3))
    rep = check_coercivity(loss, radius=1.0, sample_count=500, seed=0)
    assert rep.passed
    assert rep.c1_hat == pytest.approx(1.0, abs=1e-12)
    assert rep.c2_hat == pytest.approx(1.0, abs=1e-12)


def test_coercivity_pure_saddle_fails():
    loss = quadratic_saddle([1.0, -1.0])
    rep = check_coercivity(loss, radius=1.0, sample_count=500, seed=0)
    assert not rep.passed
    assert rep.c1_hat < 0


def test_coercivity_quartic_dominates():
    saddle = quadratic_saddle([1.0, -1.0])

    def value(x):
        return saddle.value(x) + np.sum(np.asarray(x) ** 2, axis=-1) ** 2

    def subgradient(x):
        x = np.asarray(x, dtype=float)
        return saddle.subgradient(x) + 4.0 * np.sum(x ** 2, axis=-1, keepdims=True) * x

    loss = LossOracle(2, value, subgradient)
    rep = check_coercivity(loss, radius=10.0, sample_count=2000, seed=1)
    assert rep.passed
    # dense sampling on the inner sphere itself, the worst case
    thetas = np.linspace(0, 2 * np.pi, 5000, endpoint=False)
    xs = 10.0 * np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    vs = subgradient(xs)
    cos = np.einsum("ij,ij->i", xs, vs) / (10.0 * np.linalg.norm(vs, axis=1))
    assert np.min(cos) > 0


def test_fd_gradient_rejects_bad_step():
    with pytest.raises(ValueError):
        finite_difference_gradient(zero_loss(1), np.zeros(1), step=0.0)


def _term_loop(terms, x, order):
    """The order-th derivative of sum c * prod x_i**p_i, term by term with
    numpy's **, accumulated from zero in term order."""
    d = x.shape[-1]

    def mono(powers):
        out = np.ones(x.shape[:-1])
        for i, p in enumerate(powers):
            if p:
                out = out * x[..., i] ** p
        return out

    out = np.zeros(x.shape[:-1] + (d,) * order)
    for powers, c in terms:
        if order == 0:
            out = out + c * mono(powers)
            continue
        for j in range(d):
            if not powers[j]:
                continue
            d1 = list(powers)
            d1[j] -= 1
            if order == 1:
                out[..., j] += c * powers[j] * mono(d1)
                continue
            for k in range(d):
                if d1[k]:
                    d2 = list(d1)
                    d2[k] -= 1
                    out[..., j, k] += c * powers[j] * d1[k] * mono(d2)
    return out


POLYNOMIALS = st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(st.lists(st.integers(0, 4), min_size=d, max_size=d),
              st.floats(-2.0, 2.0, allow_subnormal=False)),
    min_size=1, max_size=5))


@settings(max_examples=80, deadline=None)
@given(POLYNOMIALS, st.integers(0, 2 ** 32 - 1))
def test_polynomial_matches_term_loop_and_differences(terms, seed):
    exps = np.array([p for p, _ in terms])
    loss = polynomial(exps, [c for _, c in terms])
    d = exps.shape[1]
    x = np.random.default_rng(seed).uniform(-1.5, 1.5, (4, 3, d))
    abs_terms = [(p, abs(c)) for p, c in terms]
    for order, method in enumerate((loss.value, loss.subgradient, loss.hessian)):
        got, want = method(x), _term_loop(terms, x, order)
        assert got.shape == want.shape
        scale = _term_loop(abs_terms, np.abs(x), order)
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + scale))
        if exps.max() <= 2:
            # no power above 2: products and sums in the same order as **
            assert got.tobytes() == want.tobytes()
    hess = loss.hessian(x)
    singles = np.stack([loss.hessian(p) for p in x.reshape(-1, d)])
    assert hess.tobytes() == singles.reshape(hess.shape).tobytes()
    point = x[0, 0]
    assert np.allclose(loss.subgradient(point), finite_difference_gradient(loss, point),
                       rtol=1e-6, atol=1e-6)
    assert np.allclose(hess[0, 0], fd_hessian(loss, point), rtol=1e-5, atol=1e-5)


def _reference_evaluate(plan, x, *, tail, width):
    """Sum a plan's terms at x of shape (..., d) into shape (...) + tail,
    whose product is width: the interpreted evaluator that the compiled
    kernels replaced, kept as their reference.

    Each slot sums from zero in term order and each monomial multiplies its
    factors in coordinate order, as a term-by-term loop does. Powers come from
    repeated multiplication, so x**2 is x * x exactly as numpy's square, and
    no power goes through pow.
    """
    needed, terms = plan
    x = np.asarray(x, dtype=float)
    powers = {}
    for i, p in needed:
        powers[i, p] = x[..., i] if p == 1 else powers[i, p - 1] * x[..., i]
    out = np.zeros(x.shape[:-1] + (width,))
    term = np.empty(x.shape[:-1])
    for slot, c, factors in terms:
        mono = powers[factors[0]] if factors else 1.0
        for f in factors[1:]:
            mono = np.multiply(mono, powers[f], out=term)
        column = out[..., slot]
        np.add(column, np.multiply(c, mono, out=term), out=column)
    return out.reshape(x.shape[:-1] + tail)[()]


def _reference_polynomial(exponents, coefficients):
    exponents = np.asarray(exponents, dtype=int)
    coefficients = np.asarray(coefficients, dtype=float)
    d = exponents.shape[1]
    return LossOracle(d, *(partial(_reference_evaluate,
                                   _derivative_terms(exponents, coefficients, order),
                                   tail=(d,) * order, width=d ** order)
                           for order in range(3)))


def _assert_same_bits(got, want, x):
    """got has want's type, shape and bits. Where x holds both a NaN and an
    infinity, NaNs of both signs occur (the input's, and the negative one that
    inf * 0 or inf - inf makes); where two meet, numpy keeps one or the other
    by where the element falls in a SIMD vector, so that the reference gives
    the same row different NaN signs at different places in a batch. There
    only where the NaNs are is pinned, and every other entry's bits."""
    assert type(got) is type(want) and np.shape(got) == np.shape(want)
    got, want = np.asarray(got), np.asarray(want)
    if np.isnan(x).any() and np.isinf(x).any():
        assert np.array_equal(np.isnan(got), np.isnan(want))
        got, want = (np.where(np.isnan(a), np.nan, a) for a in (got, want))
    assert got.tobytes() == want.tobytes()


ENTRIES = st.one_of(st.floats(-3.0, 3.0),
                    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))


@st.composite
def _polynomial_cases(draw):
    d = draw(st.integers(1, 4))
    exps = draw(st.lists(st.lists(st.integers(0, 4), min_size=d, max_size=d),
                         min_size=1, max_size=6))
    if draw(st.booleans()):
        # separable, one power shared by each run of d terms over the d
        # coordinates: many terms that are each one power, one per coordinate
        exps = [[exps[t - t % d][0] if j == t % d else 0 for j in range(d)]
                for t in range(len(exps))]
    coefs = draw(st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
                          min_size=len(exps), max_size=len(exps)))
    shape = draw(st.sampled_from([(d,), (5, d), (4, 3, d)]))
    flat = draw(st.lists(ENTRIES, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(exps), coefs, np.array(flat).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(_polynomial_cases())
# the gradient's slot 0 sums 1e16, x1 and -1e16, with slot 1's term between
# the last two: in term order that is 0.0, and a regrouping that is not
# stable gives 1.0
@example((np.array([[1, 0], [1, 1], [1, 0]]), [1e16, 1.0, -1e16], np.ones((5, 2))))
def test_compiled_polynomial_has_the_reference_bits(case):
    # value, gradient and Hessian, on random exponent matrices with zero
    # coefficients, signed zeros, infinities and NaNs, for one point, a batch
    # and a 2-D batch; and a component shared by two agents through sum_loss
    exps, coefs, x = case
    loss, ref = polynomial(exps, coefs), _reference_polynomial(exps, coefs)
    shared, ref_shared = (sum_loss([oracle] * 2).assembled for oracle in (loss, ref))
    pair = np.concatenate([x, x[..., ::-1]], axis=-1)
    with np.errstate(all="ignore"):
        for method in ("value", "subgradient", "hessian"):
            _assert_same_bits(getattr(loss, method)(x), getattr(ref, method)(x), x)
            _assert_same_bits(getattr(shared, method)(pair), getattr(ref_shared, method)(pair),
                              pair)


def test_polynomial_builds_only_the_powers_it_needs():
    # x0 appears only linearly, so x0 = 1e300 overflows nothing: no x0**2 is
    # formed for the x1**4 term's sake
    loss = polynomial([[1, 0], [0, 4]], [1.0, 1.0])
    for x in (np.array([1e300, 2.0]), np.array([[1e300, 2.0], [-1e300, 0.5]])):
        with np.errstate(over="raise"):
            value, grad, hess = loss.value(x), loss.subgradient(x), loss.hessian(x)
        assert np.all(value == x[..., 0] + x[..., 1] ** 4)
        assert np.all(grad[..., 0] == 1.0) and np.all(grad[..., 1] == 4.0 * x[..., 1] ** 3)
        assert np.all(hess[..., 0, :] == 0.0) and np.all(hess[..., 1, 1] == 12.0 * x[..., 1] ** 2)


def test_polynomial_rejects_bad_exponents():
    with pytest.raises(ValueError):
        polynomial([[1, -1]], [1.0])
    with pytest.raises(ValueError):
        polynomial([[1, 2]], [1.0, 2.0])


def _wells(anchors, weight=None):
    comps = [shifted_quadratic(a) for a in anchors]
    stacked = shifted_quadratic(np.concatenate(anchors))
    if weight is not None:
        comps = [l1_regularized(c, weight) for c in comps]
        stacked = l1_regularized(stacked, weight)
    return sum_loss(comps), sum_loss(comps, stacked)


@pytest.mark.parametrize("weight", [None, 0.3])
def test_stacked_wells_oracle_matches_per_agent_assembly(weight):
    rng = np.random.default_rng(4)
    for n, d in ((3, 2), (4, 1), (2, 3)):
        per_agent, stacked = _wells(list(rng.standard_normal((n, d))), weight)
        for shape in ((n * d,), (20, n * d), (2, 5, n * d)):
            x = rng.standard_normal(shape)
            x[..., 0] = 0.0  # a kink of the l1 term
            got = stacked.assembled.subgradient(x)
            assert got.tobytes() == per_agent.assembled.subgradient(x).tobytes()
            assert np.allclose(stacked.assembled.value(x), per_agent.assembled.value(x),
                               rtol=1e-12, atol=1e-12)


def test_shared_component_is_evaluated_as_the_per_agent_loop():
    def comp():
        return separable_polynomial({0: {2: 0.25, 1: -0.1}, 1: {2: -0.25, 4: 0.125}}, dim=2)

    shared = sum_loss([comp()] * 3).assembled
    separate = sum_loss([comp() for _ in range(3)]).assembled
    x = np.random.default_rng(5).standard_normal((7, 6))
    for method in ("value", "subgradient", "hessian"):
        got = getattr(shared, method)(x)
        assert got.tobytes() == getattr(separate, method)(x).tobytes(), method
    assert shared.hessian(x[0]).shape == (6, 6)
