"""Objective functions with subgradient selection oracles.

Every oracle evaluates on arrays of shape (..., dim): values come back with
shape (...), subgradients with shape (..., dim). Kinks are known structurally
(the builders know where their functions are nonsmooth); the selection at a
kink is the minimal-norm element of the known subdifferential, so sign(0)=0
for the absolute value and ReLU'(0)=0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class LossOracle:
    """Evaluable objective with a Clarke subgradient selection.

    hessian is present only where second derivatives exist everywhere, and
    its presence is the oracle's one smoothness claim: saddle analysis
    refuses a loss without it.
    """

    dim: int
    value: Callable
    subgradient: Callable
    hessian: Optional[Callable] = None


@dataclass(frozen=True)
class SumLoss:
    """Separable objective h(x) = sum_n f_n(x_n) over stacked agent blocks."""

    components: tuple
    assembled: LossOracle


def sum_loss(components, stacked=None):
    """Stack per-agent oracles into the assembled block-separable oracle.

    Components that are one shared oracle are evaluated in one call on the
    (..., N, d) agent blocks. `stacked`, when given, is an oracle on the whole
    stacked vector equal to the sum of the components (for instance one
    shifted quadratic of the concatenated anchors); it then serves the
    value, subgradient and Hessian, and the components serve the per-agent
    views.
    """
    components = tuple(components)
    d = components[0].dim
    if any(c.dim != d for c in components):
        raise ValueError("all components must share the agent dimension")
    n = len(components)
    m = n * d
    shared = all(c is components[0] for c in components)

    def per_agent(name, x):
        """The components' `name` on their blocks of x, stacked on the agent axis."""
        blocks = np.asarray(x, dtype=float)
        blocks = blocks.reshape(blocks.shape[:-1] + (n, d))
        if shared:
            return getattr(components[0], name)(blocks)
        return np.stack([getattr(c, name)(blocks[..., i, :])
                         for i, c in enumerate(components)], axis=blocks.ndim - 2)

    def value(x):
        values = per_agent("value", x)
        return sum(values[..., i] for i in range(n))

    def subgradient(x):
        grads = per_agent("subgradient", x)
        return grads.reshape(grads.shape[:-2] + (m,))

    hessian = None
    if all(c.hessian is not None for c in components):
        def hessian(x):
            blocks = per_agent("hessian", x)
            lead = blocks.shape[:-3]
            out = np.zeros(lead + (n, d, n, d))
            for i in range(n):
                out[..., i, :, i, :] = blocks[..., i, :, :]
            return out.reshape(lead + (m, m))

    if stacked is not None:
        if stacked.dim != m:
            raise ValueError("the stacked oracle must have the stacked dimension")
        value, subgradient, hessian = stacked.value, stacked.subgradient, stacked.hessian

    return SumLoss(components, LossOracle(m, value, subgradient, hessian))


def zero_loss(dim):
    return LossOracle(dim, lambda x: np.zeros(np.shape(x)[:-1]), lambda x: np.zeros(np.shape(x)),
                      lambda x: np.zeros(np.shape(x)[:-1] + (dim, dim)))


def quadratic_saddle(curvatures):
    """h(x) = 1/2 sum c_i x_i^2 with a critical point at the origin.

    All curvatures must be nonzero (the critical point stays regular) and at
    least one negative (so it is not a minimum).
    """
    c = np.asarray(curvatures, dtype=float)
    if np.any(c == 0.0):
        raise ValueError("zero curvature would make the critical point degenerate")
    if not np.any(c < 0.0):
        raise ValueError("need at least one negative curvature")
    return separable_polynomial({i: {2: 0.5 * ci} for i, ci in enumerate(c)}, dim=len(c))


def quadratic_form(hess, linear=None):
    """h(x) = 1/2 x.T H x + b.T x for symmetric H."""
    h = np.asarray(hess, dtype=float)
    dim = h.shape[0]
    if not np.allclose(h, h.T, atol=1e-12):
        raise ValueError("Hessian must be symmetric")
    b = np.zeros(dim) if linear is None else np.asarray(linear, dtype=float)

    def value(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, h, x) + x @ b

    def subgradient(x):
        return np.asarray(x, dtype=float) @ h + b

    def hessian(x):
        return np.broadcast_to(h, np.shape(x)[:-1] + h.shape).copy()

    return LossOracle(dim, value, subgradient, hessian)


def shifted_quadratic(anchor):
    """h(x) = 1/2 ||x - a||^2: the quadratic form with H = I and b = -a, whose
    value carries the constant 1/2 ||a||^2. Its gradient is x - a, computed
    as such rather than as a product with I."""
    a = np.asarray(anchor, dtype=float)

    def value(x):
        return 0.5 * np.sum((np.asarray(x, dtype=float) - a) ** 2, axis=-1)

    def subgradient(x):
        return np.asarray(x, dtype=float) - a

    return LossOracle(len(a), value, subgradient, quadratic_form(np.eye(len(a))).hessian)


def _derivative_terms(exponents, coefficients, order):
    """The order-th derivative of a polynomial as the powers it needs and its
    (slot, coefficient, factors) terms in the polynomial's term order.

    Slot j is the gradient's coordinate j and slot j * d + k the Hessian's
    entry (j, k); factors lists the (coordinate, power) pairs of the positive
    powers in coordinate order. The powers are sorted, so x_i**(p - 1)
    precedes x_i**p.
    """
    d = exponents.shape[1]
    unit = np.eye(d, dtype=int)
    terms = [(0, c, e) for e, c in zip(exponents, coefficients)]
    for _ in range(order):
        terms = [(slot * d + j, c * e[j], e - unit[j])
                 for slot, c, e in terms for j in range(d) if e[j]]
    terms = [(slot, c, [(i, int(p)) for i, p in enumerate(e) if p]) for slot, c, e in terms]
    powers = sorted({(i, q) for _, _, fs in terms for i, p in fs for q in range(1, p + 1)})
    return powers, terms


_ONE = np.ones((1, 1))


class _Kernel:
    """One derivative order of a polynomial, compiled from its plan into
    power steps and one term list of numpy calls. Called on x of shape
    (..., d), it returns shape (...) + tail; a 1-D x gives a scalar value.

    It works on x as the d columns of its (rows, d) view. Its output and its
    workspace (a term row, then one row per stored power) are column-major
    too, so a coordinate, a power or a slot is an index on the leading axis.
    x_i**1 is x's column i and x_i**0 the constant 1.0. The workspace stores
    each power x_i**q, q >= 2, that the plan needs, in increasing q, as
    x_i**(q - 1) times x_i. So x * x is numpy's square exactly, no power goes
    through pow, and no unneeded power can overflow.

    The terms are stably sorted by slot, so each slot sums in its own term
    order. A slot's first term writes its product into the output column,
    each later term of the slot adds its own, and one add of +0.0 over the
    whole output ends the sum. That gives the bits of a sum from +0.0: the
    two differ only while every term so far is -0.0, and then only in the
    sign of that zero, which the final +0.0 settles. Each monomial
    multiplies its factors in coordinate order.
    """

    def __init__(self, plan, dim, order):
        needed, terms = plan
        self.tail, self.width = (dim,) * order, dim ** order
        # x_i**p is row j of array a: 0 the constant, 1 x's columns, 2 the workspace
        where = {(i, 1): (1, i) for i in range(dim)}
        self.powers = []   # (workspace row, i, where x_i**(q - 1) is)
        for i, q in sorted(needed, key=lambda iq: iq[::-1]):
            if q > 1:
                self.powers.append((len(self.powers) + 1, i, where[i, q - 1]))
                where[i, q] = (2, len(self.powers))
        self.depth = len(self.powers) + 1   # and row 0, the term
        terms = sorted(terms, key=lambda term: term[0])
        self.terms = []   # (slot, is it the slot's first term, c, first factor, the rest)
        for k, (slot, c, factors) in enumerate(terms):
            head, *rest = [where[f] for f in factors] or [(0, 0)]
            self.terms.append((slot, k == 0 or terms[k - 1][0] != slot, c, head, rest))
        # a slot with no term is never written, so it must start at zero
        self.fresh = np.empty if len({slot for slot, _, _ in terms}) == self.width else np.zeros

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        lead = x.shape[:-1]
        rows = math.prod(lead)
        cols = x.reshape(rows, x.shape[-1]).T
        work = np.empty((self.depth, rows))
        arrays = (_ONE, cols, work)
        for row, i, (a, j) in self.powers:
            np.multiply(arrays[a][j], cols[i], work[row])
        out = self.fresh((rows, self.width))
        columns, term = out.T, work[0]
        for slot, first, c, (a, j), rest in self.terms:
            mono = arrays[a][j]
            for a, j in rest:
                mono = np.multiply(mono, arrays[a][j], term)
            column = columns[slot]
            if first:
                np.multiply(c, mono, column)
            else:
                np.add(column, np.multiply(c, mono, term), column)
        if self.terms:
            np.add(out, 0.0, out)
        out = out.reshape(lead + self.tail)
        return out[()] if out.ndim == 0 else out


def polynomial(exponents, coefficients):
    """h(x) = sum_t c_t prod_i x_i**E[t, i] for a (T, d) matrix E of
    nonnegative integer exponents; value, gradient and Hessian are batched
    over leading axes."""
    exponents = np.asarray(exponents, dtype=int)
    coefficients = np.asarray(coefficients, dtype=float)
    if exponents.ndim != 2 or len(exponents) != len(coefficients):
        raise ValueError("need a (terms, dim) exponent matrix and one coefficient per term")
    if np.any(exponents < 0):
        raise ValueError("exponents must be nonnegative")
    dim = exponents.shape[1]
    value, subgradient, hessian = (
        _Kernel(_derivative_terms(exponents, coefficients, order), dim, order)
        for order in range(3))
    return LossOracle(dim, value, subgradient, hessian)


def separable_polynomial(coeffs, dim):
    """h(x) = sum_i sum_p coeffs[i][p] * x_i**p, a smooth separable polynomial.

    coeffs maps coordinate index -> {power: coefficient} with powers >= 1.
    """
    exponents, coefficients = [], []
    for i in range(dim):
        for p, c in sorted(coeffs.get(i, {}).items()):
            if p < 1:
                raise ValueError("powers must be >= 1")
            exponents.append([p if j == i else 0 for j in range(dim)])
            coefficients.append(c)
    return polynomial(np.reshape(exponents, (-1, dim)), coefficients)


def monomial_loss(dim, terms):
    """h(x) = sum over terms of c * prod x_i**p_i for multi-index powers.

    terms maps exponent tuples (length dim, nonnegative ints) to coefficients;
    allows cross terms that separable_polynomial cannot express.
    """
    for powers in terms:
        if len(powers) != dim or any(int(p) < 0 for p in powers):
            raise ValueError(f"bad exponent tuple {tuple(powers)}")
    return polynomial(np.reshape(list(terms), (-1, dim)), list(terms.values()))


def l1_regularized(base, weight):
    """base(x) + weight * sum|x_i| with the minimal-norm selection sign(0)=0."""
    if weight <= 0:
        raise ValueError("weight must be positive")

    def value(x):
        x = np.asarray(x, dtype=float)
        return base.value(x) + weight * np.sum(np.abs(x), axis=-1)

    def subgradient(x):
        x = np.asarray(x, dtype=float)
        return base.subgradient(x) + weight * np.sign(x)

    return LossOracle(base.dim, value, subgradient)


def relu_regression(inputs, targets, widths=()):
    """Squared loss of a small bias-free ReLU network.

    h(theta) = 1/2 sum_s (net(x_s; theta) - y_s)^2 where net applies
    ReLU after each hidden layer; widths lists the hidden layer sizes
    (empty means a linear model). The parameter vector stacks the weight
    matrices in order, each flattened row-major. ReLU'(0) = 0.

    Test-only: the nonsmooth network loss of acceptance test_01.
    """
    xs = np.atleast_2d(np.asarray(inputs, dtype=float))
    ys = np.asarray(targets, dtype=float).ravel()
    if xs.shape[0] != ys.shape[0]:
        raise ValueError("inputs and targets disagree on sample count")
    if xs.shape[0] == 0:
        raise ValueError("need at least one sample")
    fans = [xs.shape[1], *widths, 1]
    sizes = list(zip(fans[:-1], fans[1:]))
    dim = sum(fi * fo for fi, fo in sizes)

    def unpack(theta):
        mats, off = [], 0
        for fi, fo in sizes:
            mats.append(theta[off:off + fi * fo].reshape(fi, fo))
            off += fi * fo
        return mats

    def forward(mats):
        acts, pre_acts = [xs], []
        for k, w in enumerate(mats):
            z = acts[-1] @ w
            pre_acts.append(z)
            acts.append(np.maximum(z, 0.0) if k < len(mats) - 1 else z)
        return acts, pre_acts

    def value_one(theta):
        acts, _ = forward(unpack(theta))
        return 0.5 * np.sum((acts[-1][:, 0] - ys) ** 2)

    def subgradient_one(theta):
        mats = unpack(theta)
        acts, pre_acts = forward(mats)
        delta = acts[-1][:, 0] - ys
        grad_out = delta[:, None]
        grads = [None] * len(mats)
        for k in range(len(mats) - 1, -1, -1):
            grads[k] = acts[k].T @ grad_out
            if k > 0:
                grad_out = (grad_out @ mats[k].T) * (pre_acts[k - 1] > 0.0)
        return np.concatenate([g.ravel() for g in grads])

    def rowwise(one, x):
        """one(theta) for every parameter vector theta of x, shape (..., dim)."""
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return one(x)
        out = np.array([one(t) for t in x.reshape(-1, dim)])
        return out.reshape(x.shape[:-1] + out.shape[1:])

    return LossOracle(dim, partial(rowwise, value_one), partial(rowwise, subgradient_one))


@dataclass(frozen=True)
class CoercivityReport:
    c1_hat: float
    c2_hat: float
    passed: bool


def check_coercivity(loss, radius, sample_count=2000, seed=0):
    """Sampled falsification check of the inward-gradient growth conditions.

    Samples ||x|| in [R, 10R]; c1_hat is the worst observed cosine
    <x, v>/(||x|| ||v||) and c2_hat the largest ||v||/||x||. Passing means
    c1_hat > 0 with c2_hat finite on the sample; this refutes rather than
    proves the global property. Samples with v = 0 satisfy both conditions
    vacuously and are skipped for the cosine.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((sample_count, loss.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = rng.uniform(radius, 10.0 * radius, size=sample_count)
    xs = dirs * radii[:, None]
    vs = loss.subgradient(xs)
    vnorm = np.linalg.norm(vs, axis=1)
    nonzero = vnorm > 0
    if not np.any(nonzero):
        return CoercivityReport(1.0, 0.0, True)
    cos = np.einsum("ij,ij->i", xs[nonzero], vs[nonzero]) / (radii[nonzero] * vnorm[nonzero])
    c1_hat = float(np.min(cos))
    c2_hat = float(np.max(vnorm / radii))
    return CoercivityReport(c1_hat, c2_hat, bool(c1_hat > 0 and np.isfinite(c2_hat)))


def finite_difference_gradient(loss, x, step=1e-5):
    """Central-difference gradient, the independent oracle for smooth points.

    Test-only: the oracle that subgradients are checked against.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = step
        out[i] = (loss.value(x + e) - loss.value(x - e)) / (2.0 * step)
    return out
