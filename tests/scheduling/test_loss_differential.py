"""Differential test: the incremental LOSS kernel against a numpy oracle.

:func:`oracle_path_fragments` is the max-loss edge loop in its
plainest numpy form: every step re-partitions the whole working matrix
along both axes to find each row's and column's two smallest entries.
It is slow (``O(m^3)`` numpy work) but short enough to check by eye,
so it is the reference the incremental kernel of
:func:`repro.scheduling.loss.loss_path_fragments` must match exactly —
same fragments, same order — on random matrices with ties and +inf
masks and on the real matrices of the LOSS schedulers.
"""

from __future__ import annotations

from contextlib import ExitStack
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.scheduling.loss as loss_module
import repro.scheduling.loss_sparse as loss_sparse_module
from repro.scheduling import get_scheduler, loss_path_fragments


def oracle_path_fragments(distance: np.ndarray) -> list[list[int]]:
    """Reference max-loss loop: full two-smallest partition per step."""
    m = distance.shape[0]
    if m == 1:
        return [[0]]
    work = distance.astype(np.float64, copy=True)
    np.fill_diagonal(work, np.inf)
    work[:, 0] = np.inf

    successor = np.full(m, -1, dtype=np.int64)
    predecessor = np.full(m, -1, dtype=np.int64)
    parent = np.arange(m, dtype=np.int64)
    head = np.arange(m, dtype=np.int64)
    tail = np.arange(m, dtype=np.int64)

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for _ in range(m - 1):
        edge = _oracle_select_edge(work)
        if edge is None:
            break
        u, v = edge
        successor[u] = v
        predecessor[v] = u
        work[u, :] = np.inf
        work[:, v] = np.inf
        root_u, root_v = find(u), find(v)
        parent[root_v] = root_u
        new_head, new_tail = head[root_u], tail[root_v]
        head[root_u], tail[root_u] = new_head, new_tail
        work[new_tail, new_head] = np.inf

    fragments: list[list[int]] = []
    for node in range(m):
        if predecessor[node] != -1:
            continue
        fragment = [node]
        cursor = int(successor[node])
        while cursor != -1:
            fragment.append(cursor)
            cursor = int(successor[cursor])
        fragments.append(fragment)
    fragments.sort(key=lambda fragment: fragment[0] != 0)
    return fragments


def _oracle_select_edge(work: np.ndarray) -> tuple[int, int] | None:
    with np.errstate(invalid="ignore"):
        row_two = np.partition(work, 1, axis=1)[:, :2]
        col_two = np.partition(work, 1, axis=0)[:2, :]
        out_loss = row_two[:, 1] - row_two[:, 0]
        in_loss = col_two[1, :] - col_two[0, :]
    out_loss = _oracle_sanitize_loss(out_loss, row_two[:, 0], row_two[:, 1])
    in_loss = _oracle_sanitize_loss(in_loss, col_two[0, :], col_two[1, :])

    loss = np.maximum(out_loss, in_loss)
    city = int(np.argmax(loss))
    if loss[city] == -np.inf:
        return None
    if out_loss[city] >= in_loss[city]:
        return city, int(np.argmin(work[city, :]))
    return int(np.argmin(work[:, city])), city


def _oracle_sanitize_loss(
    loss: np.ndarray, best: np.ndarray, second: np.ndarray
) -> np.ndarray:
    loss = loss.copy()
    loss[~np.isfinite(best)] = -np.inf
    loss[np.isfinite(best) & ~np.isfinite(second)] = np.inf
    return loss


def _random_matrix(
    seed: int, m: int, weights: str, inf_density: float, dead_lines: int
) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if weights == "ties":
        matrix = rng.integers(0, 4, size=(m, m)).astype(np.float64)
    else:
        matrix = rng.uniform(0.0, 100.0, size=(m, m))
    matrix[rng.random((m, m)) < inf_density] = np.inf
    for _ in range(dead_lines):
        line = int(rng.integers(m))
        if rng.random() < 0.5:
            matrix[line, :] = np.inf
        else:
            matrix[:, line] = np.inf
    return matrix


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 70),
    weights=st.sampled_from(["uniform", "ties"]),
    inf_density=st.sampled_from([0.0, 0.0, 0.3, 0.7, 0.95]),
    dead_lines=st.integers(0, 3),
)
def test_matches_oracle_on_random_matrices(
    seed, m, weights, inf_density, dead_lines
):
    matrix = _random_matrix(seed, m, weights, inf_density, dead_lines)
    expected = oracle_path_fragments(matrix)
    assert loss_path_fragments(matrix) == expected


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 12),
    data=st.data(),
)
def test_matches_oracle_on_tiny_integer_matrices(m, data):
    # Hypothesis shrinks these to minimal counterexamples: weights from
    # {0, 1, 2, inf} make nearly every step a tie.
    cells = data.draw(
        st.lists(
            st.sampled_from([0.0, 1.0, 2.0, np.inf]),
            min_size=m * m,
            max_size=m * m,
        )
    )
    matrix = np.asarray(cells, dtype=np.float64).reshape(m, m)
    expected = oracle_path_fragments(matrix)
    assert loss_path_fragments(matrix) == expected


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    scheduler=st.sampled_from(["LOSS", "LOSS-raw", "LOSS-sparse"]),
    size=st.integers(2, 96),
    clustered=st.booleans(),
)
def test_matches_oracle_on_scheduler_matrices(
    full_model, seed, scheduler, size, clustered
):
    # Record every matrix the real schedulers hand the kernel, from
    # schedule_distance_matrix through coalescing, sparsifying and
    # contraction, and check each result against the oracle.
    rng = np.random.default_rng(seed)
    total = full_model.geometry.total_segments
    if clustered:
        centre = int(rng.integers(total - 20_000))
        segments = centre + rng.choice(20_000, size, replace=False)
    else:
        segments = rng.choice(total, size, replace=False)
    origin = int(rng.integers(total))
    calls: list[tuple[np.ndarray, list[list[int]]]] = []

    def recording(distance):
        fragments = loss_path_fragments(distance)
        calls.append((distance.copy(), fragments))
        return fragments

    with ExitStack() as stack:
        for module in (loss_module, loss_sparse_module):
            stack.enter_context(
                mock.patch.object(module, "loss_path_fragments", recording)
            )
        get_scheduler(scheduler).schedule(
            full_model, origin, segments.tolist()
        )

    for distance, fragments in calls:
        assert fragments == oracle_path_fragments(distance)


def test_scheduler_matrices_reach_the_sparse_rounds(full_model):
    # The scheduler-matrix property is only meaningful if sparse LOSS
    # really runs its sparse rounds (matrices with +inf holes).
    rng = np.random.default_rng(5)
    segments = rng.choice(
        full_model.geometry.total_segments, 96, replace=False
    )
    shapes: list[tuple[int, float]] = []

    def recording(distance):
        shapes.append((distance.shape[0], float(np.isinf(distance).mean())))
        return loss_path_fragments(distance)

    with mock.patch.object(
        loss_sparse_module, "loss_path_fragments", recording
    ):
        get_scheduler("LOSS-sparse").schedule(
            full_model, 0, segments.tolist()
        )
    assert any(size > 24 and holes > 0.5 for size, holes in shapes)
