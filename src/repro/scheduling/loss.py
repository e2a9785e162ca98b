"""LOSS: the greedy asymmetric-TSP heuristic of Lawler et al. [LLKS85].

SLTF is "too greedy": taking the closest request now can force a very
long locate later.  LOSS repairs this: at each step it considers, for
every city, the gap between its shortest and second-shortest remaining
out-edge (its *out-loss*) and in-edge (*in-loss*); it then commits the
shortest edge at the city whose loss is largest — the city that stands
to lose the most if its short edge is not used.

Cities are the distance-coalesced request groups (threshold ``T``,
default 1410 segments); the initial head position is a city with only
out-edges.  Edges are committed under Hamiltonian-path constraints: one
out-edge and one in-edge per city, and no cycles (enforced by closing
off the tail-to-head edge of every merged path fragment).

This is the paper's recommended algorithm for batches of 11 to ~1536
uniformly random requests.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from itertools import compress
from operator import le

import numpy as np

from repro.constants import DEFAULT_COALESCE_THRESHOLD
from repro.exceptions import SchedulingError
from repro.model.distance_matrix import schedule_distance_matrix
from repro.scheduling.base import Scheduler, register
from repro.scheduling.coalesce import (
    Group,
    coalesce_by_threshold,
    expand_groups,
)
from repro.scheduling.request import Request

_INF = math.inf


def loss_path(distance: np.ndarray) -> list[int]:
    """Greedy max-loss Hamiltonian path on an asymmetric matrix.

    Parameters
    ----------
    distance:
        Square ``(m, m)`` matrix; node 0 is the fixed start.  Entry
        ``[i, j]`` is the cost of travelling ``i -> j``; forbidden edges
        (the diagonal, edges into node 0) must already be ``+inf``.

    Returns
    -------
    list of node indices (excluding node 0) in visit order.
    """
    fragments = loss_path_fragments(distance)
    if len(fragments) != 1 or fragments[0][0] != 0:
        raise SchedulingError("LOSS failed to build a full path")
    return fragments[0][1:]


def loss_path_fragments(distance: np.ndarray) -> list[list[int]]:
    """Max-loss edge selection, returning the path fragments built.

    Runs the same greedy loop as :func:`loss_path` but stops when no
    feasible edge remains instead of raising: on a *complete* matrix
    that is after ``m - 1`` edges (one fragment — the full path), on a
    sparse matrix possibly earlier.  The sparse-graph LOSS variant
    (the paper's future-work idea implemented in
    :mod:`repro.scheduling.loss_sparse`) contracts these fragments and
    repeats.

    Fragments are returned head-first; the fragment starting with node
    0 (if any edges were added at all) comes first.

    Every row's and column's two smallest entries are found once, in
    one ``np.partition`` per axis.  After that the matrix is held as
    Python lists, and committing an edge ``u -> v`` recomputes only
    the rows and columns whose two smallest entries it touched: the
    columns where row ``u``'s dead entry was at most their second
    smallest, the rows likewise for column ``v``, and the row and
    column of the closed tail-to-head cell.  That is ``O(m)`` per step
    when few lines are touched, ``O(m^2)`` when all are.

    Ties resolve as in a plain numpy formulation of the rule: the
    first city of largest loss, the first index of a line's minimum,
    and the out-edge when a city's out-loss equals its in-loss.
    """
    m = distance.shape[0]
    if distance.shape != (m, m):
        raise SchedulingError("distance matrix must be square")
    if m == 0:
        return []
    work = distance.astype(np.float64, copy=True)
    # min() propagates NaN, so one reduction catches NaN and -inf.
    if not work.min() > -np.inf:
        raise SchedulingError("distance matrix has a NaN or -inf entry")
    if m == 1:
        return [[0]]
    np.fill_diagonal(work, np.inf)
    work[:, 0] = np.inf

    row_best, row_second = np.partition(work, 1, axis=1)[:, :2].T.tolist()
    col_best, col_second = np.partition(work, 1, axis=0)[:2].tolist()
    row_arg = work.argmin(axis=1).tolist()
    col_arg = work.argmin(axis=0).tolist()
    rows = work.tolist()
    cols = list(map(list, zip(*rows)))
    out_loss = list(map(_loss, row_best, row_second))
    in_loss = list(map(_loss, col_best, col_second))
    score = list(map(max, out_loss, in_loss))

    successor = [-1] * m
    predecessor = [-1] * m
    # Every node starts as a singleton fragment.  An edge always runs
    # from a fragment's tail to another fragment's head, so the head of
    # each tail and the tail of each head are all the bookkeeping the
    # path constraints need.
    head_of = list(range(m))
    tail_of = list(range(m))

    for _ in range(m - 1):
        city = score.index(max(score))
        if score[city] == -_INF:
            break
        if out_loss[city] >= in_loss[city]:
            u, v = city, row_arg[city]
        else:
            u, v = col_arg[city], city
        successor[u] = v
        predecessor[v] = u
        new_head, new_tail = head_of[u], tail_of[v]
        tail_of[new_head], head_of[new_tail] = new_tail, new_head

        # Row u and column v die: mark them so they never recompute,
        # then find the lines whose two smallest entries they held.
        row_second[u] = col_second[v] = -_INF
        out_loss[u] = in_loss[v] = -_INF
        dirty_cols = _touched(rows[u], col_second)
        dirty_rows = _touched(cols[v], row_second)
        for col in cols:
            col[u] = _INF
        for row in rows:
            row[v] = _INF
        # Forbid closing the fragment into a cycle.
        closed = rows[new_tail][new_head]
        if closed != _INF:
            rows[new_tail][new_head] = cols[new_head][new_tail] = _INF
            if closed <= row_second[new_tail]:
                dirty_rows.append(new_tail)
            if closed <= col_second[new_head]:
                dirty_cols.append(new_head)

        for i in dirty_rows:
            best, row_second[i], row_arg[i] = _two_smallest(rows[i])
            out_loss[i] = _loss(best, row_second[i])
        for j in dirty_cols:
            best, col_second[j], col_arg[j] = _two_smallest(cols[j])
            in_loss[j] = _loss(best, col_second[j])
        for node in (u, v, *dirty_rows, *dirty_cols):
            score[node] = max(out_loss[node], in_loss[node])

    fragments: list[list[int]] = []
    for node in range(m):
        if predecessor[node] != -1:
            continue
        fragment = [node]
        cursor = successor[node]
        while cursor != -1:
            fragment.append(cursor)
            cursor = successor[cursor]
        fragments.append(fragment)
    fragments.sort(key=lambda fragment: fragment[0] != 0)
    return fragments


def _touched(line: list[float], seconds: list[float]) -> list[int]:
    """Crossing lines whose two smallest entries a dying line may hold.

    ``line`` is a row (or column) about to die; ``line[k]`` is its cell
    in crossing line ``k``, whose current second-smallest entry is
    ``seconds[k]`` (-inf once that line is dead).  A cell no larger
    than the second smallest may be the smallest or the second
    smallest, so line ``k`` must be recomputed; a +inf cell never
    needs it, since killing it changes nothing.
    """
    hits = compress(range(len(line)), map(le, line, seconds))
    return [k for k in hits if line[k] != _INF]


def _two_smallest(values: list[float]) -> tuple[float, float, int]:
    """A line's smallest and second-smallest entry and first argmin."""
    best = min(values)
    index = values.index(best)
    values[index] = _INF
    second = min(values)
    values[index] = best
    return best, second, index


def _loss(best: float, second: float) -> float:
    """A city's loss on one side from that side's two smallest edges.

    A city with no remaining candidate edge cannot be selected
    (loss -inf); a city with exactly one candidate is forced
    (loss +inf).
    """
    if best == _INF:
        return -_INF
    if second == _INF:
        return _INF
    return second - best


@register
class LossScheduler(Scheduler):
    """Max-loss greedy path over coalesced request groups."""

    name = "LOSS"

    def __init__(
        self, threshold: int | None = DEFAULT_COALESCE_THRESHOLD
    ) -> None:
        #: Coalescing distance; ``None`` runs LOSS on raw requests.
        self.threshold = threshold

    def _order(
        self, model, origin: int, requests: tuple[Request, ...]
    ) -> Sequence[Request]:
        if self.threshold is None:
            groups = [
                Group((r,))
                for r in sorted(requests, key=lambda r: (r.segment, r.length))
            ]
        else:
            groups = coalesce_by_threshold(requests, self.threshold)
        if len(groups) == 1:
            return expand_groups(groups)

        total = model.geometry.total_segments
        in_segments = np.fromiter(
            (g.first_segment for g in groups),
            dtype=np.int64,
            count=len(groups),
        )
        lengths = np.fromiter(
            (min(g.out_segment, total - 1) - g.first_segment for g in groups),
            dtype=np.int64,
            count=len(groups),
        )
        rect = schedule_distance_matrix(
            model, origin, in_segments, lengths=np.maximum(lengths, 1)
        )
        m = len(groups) + 1
        square = np.full((m, m), np.inf, dtype=np.float64)
        square[:, 1:] = rect
        order = loss_path(square)
        return expand_groups([groups[i - 1] for i in order])


@register
class RawLossScheduler(LossScheduler):
    """LOSS without coalescing (the ablation baseline)."""

    name = "LOSS-raw"

    def __init__(self) -> None:
        super().__init__(threshold=None)
