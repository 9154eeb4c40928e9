"""Communication graphs, Laplacians, and quadratic penalty matrices.

The penalty matrix Q = L kron I_d turns agentwise consensus dynamics into the
general subspace-constrained form: the constraint set is the nullspace of Q,
which for a connected graph is the consensus subspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, allocation

# An eigenvalue counts as zero if |lam| < ZERO_EIG_REL_TOL * max|lam|
# (relative, hence scale-free). Eigenvalues in the ambiguity band just above
# are refused rather than classified.
ZERO_EIG_REL_TOL = 1e-9
AMBIGUITY_BAND = 1e3


@dataclass(frozen=True)
class Graph:
    """Undirected, unweighted graph on vertices 1..vertex_count.

    Edges are stored as sorted 1-indexed pairs (i, j) with i < j; self-loops
    are rejected.
    """

    vertex_count: int
    edges: frozenset

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if not (1 <= i < j <= self.vertex_count):
                raise ValueError(f"edge ({i},{j}) out of range or unsorted")

    @classmethod
    def from_edges(cls, vertex_count, edges):
        normalized = frozenset((min(i, j), max(i, j)) for i, j in edges)
        return cls(vertex_count, normalized)

    def adjacency(self):
        a = np.zeros((self.vertex_count, self.vertex_count))
        for i, j in self.edges:
            a[i - 1, j - 1] = 1.0
            a[j - 1, i - 1] = 1.0
        return a


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def star_graph(n):
    """Center vertex 1, leaves 2..n."""
    return Graph.from_edges(n, [(1, j) for j in range(2, n + 1)])


def ring_graph(n):
    if n < 3:
        raise ValueError("ring needs at least 3 vertices")
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def load_graph(path):
    """Read the edge-list format: first line N, then one '"i j"' pair per line."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"graph file {path} is empty")
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        i, j = ln.split()
        edges.append((int(i), int(j)))
    return Graph.from_edges(n, edges)


def laplacian(graph):
    """Graph Laplacian L = D - A as a dense symmetric array."""
    a = graph.adjacency()
    return np.diag(a.sum(axis=1)) - a


@dataclass(frozen=True)
class PenaltyMatrix:
    """Positive semidefinite penalty Q with the rotation that splits off its
    nullspace, the constraint space."""

    matrix: np.ndarray
    rotation: ConstraintRotation


def _zero_eig_split(eigvals):
    """Indices of zero eigenvalues under the relative tolerance rule."""
    scale = np.max(np.abs(eigvals))
    if scale == 0.0:
        return np.arange(len(eigvals))
    ztol = ZERO_EIG_REL_TOL * scale
    ambiguous = (np.abs(eigvals) > ztol) & (np.abs(eigvals) < AMBIGUITY_BAND * ztol)
    if np.any(ambiguous):
        raise DegenerateSpectrumError(
            "eigenvalues %s sit in the ambiguity band around the zero threshold %.3e"
            % (eigvals[ambiguous], ztol)
        )
    return np.flatnonzero(np.abs(eigvals) <= ztol)


def penalty_from_matrix(matrix):
    """Wrap a symmetric PSD matrix with its constraint rotation."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("penalty matrix must be square")
    if not np.allclose(m, m.T, atol=1e-12):
        raise ValueError("penalty matrix must be symmetric")
    rotation = constraint_rotation(m)
    if rotation.constraint_dim == 0:
        raise ValueError("penalty matrix must have at least one zero eigenvalue")
    return PenaltyMatrix(m, rotation)


def consensus_penalty(lap, agent_dim):
    """Q = L kron I_d; constraint dimension is the nullspace dimension of Q."""
    if agent_dim <= 0:
        raise ValueError("agent_dim must be positive")
    lap = np.asarray(lap, dtype=float)
    with allocation(f"the consensus penalty of {len(lap)} agents of dimension {agent_dim}"):
        matrix = np.kron(lap, np.eye(agent_dim))
    return penalty_from_matrix(matrix)


@dataclass(frozen=True)
class ConstraintRotation:
    """Orthonormal rotation whose first constraint_dim columns span nullspace(Q)."""

    rotation: np.ndarray
    constraint_dim: int

    @property
    def constraint_basis(self):
        """Columns spanning the constraint space."""
        return self.rotation[:, : self.constraint_dim]

    @property
    def off_basis(self):
        return self.rotation[:, self.constraint_dim:]


def _fix_eigvec_signs(vectors):
    # Largest-magnitude entry of each column made positive; ties break on the
    # first maximal index, so rotations are reproducible.
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def constraint_rotation(matrix):
    """Eigendecompose a PSD matrix Q into the (nullspace | positive-spectrum)
    block frame; a matrix with a negative eigenvalue beyond rounding is refused.

    Eigenvalues are sorted ascending so the zero block comes first; the rotated
    matrix R.T @ Q @ R is diag(0, ..., 0, lam_+) with a positive definite
    lower-right block.
    """
    eigvals, eigvecs = np.linalg.eigh(np.asarray(matrix, dtype=float))
    scale = max(np.max(np.abs(eigvals)), 1.0)
    if eigvals[0] < -1e-10 * scale:
        raise ValueError(f"penalty matrix is not positive semidefinite (min eig {eigvals[0]:g})")
    zero_idx = _zero_eig_split(eigvals)
    if not np.array_equal(zero_idx, np.arange(len(zero_idx))):
        raise DegenerateSpectrumError("zero eigenvalues are not the smallest ones")
    return ConstraintRotation(_fix_eigvec_signs(eigvecs), int(len(zero_idx)))
