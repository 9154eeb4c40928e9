import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsgdlab.errors import DegenerateSpectrumError
from dsgdlab.graphs import (
    Graph,
    complete_graph,
    consensus_penalty,
    constraint_rotation,
    laplacian,
    load_graph,
    path_graph,
    penalty_from_matrix,
    star_graph,
)


def brute_force_charpoly_roots(m):
    # independent oracle: roots of det(M - x I) via numpy polynomial from minors
    return np.sort(np.real(np.roots(np.poly(m))))


def test_laplacian_path2():
    assert np.array_equal(laplacian(path_graph(2)), [[1, -1], [-1, 1]])


def test_laplacian_complete3():
    expected = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert np.array_equal(laplacian(complete_graph(3)), expected)


def test_laplacian_star4_eigenvalues():
    lap = laplacian(star_graph(4))
    assert np.array_equal(np.diag(lap), [3, 1, 1, 1])
    for i in range(1, 4):
        assert lap[0, i] == -1 and lap[i, 0] == -1
    # expected spectrum {0, 1, 1, 4} via the characteristic-polynomial oracle
    roots = brute_force_charpoly_roots(lap)
    assert np.allclose(roots, [0, 1, 1, 4], atol=1e-8)


def test_laplacian_row_sums_zero_and_psd():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = rng.integers(2, 9)
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.5]
        g = Graph.from_edges(int(n), edges)
        lap = laplacian(g)
        assert np.allclose(lap.sum(axis=1), 0.0)
        assert np.min(np.linalg.eigvalsh(lap)) > -1e-10


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])


def test_consensus_penalty_path2_d1():
    q = consensus_penalty(laplacian(path_graph(2)), 1)
    assert np.array_equal(q.matrix, [[1, -1], [-1, 1]])
    assert q.rotation.constraint_dim == 1


def test_consensus_penalty_path2_d2_nullspace():
    q = consensus_penalty(laplacian(path_graph(2)), 2)
    assert q.matrix.shape == (4, 4)
    assert q.rotation.constraint_dim == 2
    # brute-force nullspace solve: Q x = 0 has the replicated-pair basis
    for basis_vec in ([1, 0, 1, 0], [0, 1, 0, 1]):
        assert np.linalg.norm(q.matrix @ basis_vec) < 1e-12
    w, v = np.linalg.eigh(q.matrix)
    null = v[:, np.abs(w) < 1e-9]
    assert null.shape[1] == 2


def test_consensus_penalty_zero_eig_count_matches_agent_dim():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        g = path_graph(n)  # connected
        d = int(rng.integers(1, 4))
        q = consensus_penalty(laplacian(g), d)
        w = np.linalg.eigvalsh(q.matrix)
        assert np.sum(np.abs(w) < 1e-9 * np.max(np.abs(w))) == d
        assert q.rotation.constraint_dim == d


def test_consensus_penalty_rejects_bad_agent_dim():
    with pytest.raises(ValueError):
        consensus_penalty(laplacian(path_graph(2)), 0)


def test_rotation_identity_when_already_diagonal():
    q = penalty_from_matrix(np.diag([0.0, 1.0, 3.0]))
    rot = q.rotation
    assert rot.constraint_dim == 1
    assert np.allclose(np.abs(rot.rotation), np.eye(3))


def test_rotation_path2():
    q = consensus_penalty(laplacian(path_graph(2)), 1)
    rot = q.rotation
    s = 1.0 / np.sqrt(2.0)
    assert np.allclose(np.abs(rot.rotation[:, 0]), [s, s])
    assert np.allclose(np.abs(rot.rotation[:, 1]), [s, s])
    rotated = rot.rotation.T @ q.matrix @ rot.rotation
    assert np.allclose(rotated, np.diag([0.0, 2.0]), atol=1e-12)


def test_rotation_random_graph_off_block_positive_definite():
    rng = np.random.default_rng(11)
    g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4), (1, 3)])
    q = consensus_penalty(laplacian(g), 2)
    rot = q.rotation
    rotated = rot.rotation.T @ q.matrix @ rot.rotation
    off_block = rotated[rot.constraint_dim:, rot.constraint_dim:]
    assert np.min(np.linalg.eigvalsh(off_block)) > 0
    # orthonormality
    assert np.max(np.abs(rot.rotation.T @ rot.rotation - np.eye(8))) < 1e-10
    # consensus vectors are annihilated
    for _ in range(20):
        y = rng.standard_normal(2)
        x = np.tile(y, 4)
        assert np.linalg.norm(q.matrix @ x) <= 1e-10 * np.linalg.norm(x)


def test_rotation_deterministic():
    q = consensus_penalty(laplacian(star_graph(5)), 2)
    r1 = constraint_rotation(q.matrix).rotation
    r2 = constraint_rotation(q.matrix).rotation
    assert np.array_equal(r1, r2)
    assert np.array_equal(q.rotation.rotation, r1)


def test_degenerate_spectrum_rejected():
    # an eigenvalue in the ambiguity band right above the zero threshold
    with pytest.raises(DegenerateSpectrumError):
        constraint_rotation(np.diag([0.0, 1.0, 5e-8]))


def test_penalty_requires_zero_eigenvalue():
    with pytest.raises(ValueError):
        penalty_from_matrix(np.eye(3))


@pytest.mark.parametrize("matrix, error, message", [
    (np.zeros((2, 3)), ValueError, "must be square"),
    (np.array([[0.0, 1.0], [0.0, 0.0]]), ValueError, "must be symmetric"),
    # a negative eigenvalue is a PSD refusal, not an unclassifiable spectrum
    (np.diag([-1.0, 0.0, 1.0]), ValueError, "not positive semidefinite"),
    # an eigenvalue in the ambiguity band right above the zero threshold
    (np.diag([0.0, 1.0, 5e-8]), DegenerateSpectrumError, "ambiguity band"),
    (np.eye(3), ValueError, "at least one zero eigenvalue"),
], ids=["non-square", "non-symmetric", "negative-eigenvalue", "ambiguity-band", "no-zero"])
def test_penalty_refusals(matrix, error, message):
    with pytest.raises(Exception, match=message) as exc:
        penalty_from_matrix(matrix)
    assert type(exc.value) is error


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dim=st.integers(1, 6), data=st.data())
def test_penalty_carries_the_rotation_of_its_matrix(dim, data):
    # Q = U.T diag(lam) U with k zero eigenvalues and the rest well above the
    # zero threshold, for a random orthogonal U
    k = data.draw(st.integers(1, dim))
    positive = data.draw(st.lists(st.floats(0.1, 10.0), min_size=dim - k, max_size=dim - k))
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    u, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    matrix = u.T @ np.diag([0.0] * k + positive) @ u
    rotation = penalty_from_matrix(matrix).rotation
    assert rotation.constraint_dim == k
    want = constraint_rotation(matrix)
    assert rotation.rotation.tobytes() == want.rotation.tobytes()
    assert rotation.constraint_dim == want.constraint_dim


def test_edge_list_roundtrip(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("5\n1 2\n2 3\n\n4 5\n")
    assert load_graph(path) == Graph.from_edges(5, [(1, 2), (2, 3), (4, 5)])


def test_connectivity():
    # nullspace(L kron I_d) has dimension d for each connected component
    for graph, components in [(path_graph(5), 1), (Graph.from_edges(1, []), 1),
                              (Graph.from_edges(4, [(1, 2), (3, 4)]), 2)]:
        for d in (1, 2):
            rotation = consensus_penalty(laplacian(graph), d).rotation
            assert rotation.constraint_dim == components * d, (graph, d)
