"""All-pairs valid-path computation over the path-set semiring.

The closure of the single-step adjacency matrix A holds, in cell (i, j),
every valid device path from zone i to zone j, including multi-hop paths
through intermediate zones.  Intermediate zones must be transitive; the
diagonal transitivity matrix T injects that node property into the
iteration:

    A<0> = I,   A<k+1> = (A<k> . T  u  I) . A

Each iterate is a function of the one before, so once A<k> = A<k+1>
every later iterate is the same matrix.  Elementary-path validity bounds
every path at n-1 hops, so that fixpoint comes within n-1 steps; the
iteration stops at the first one and yields the same matrix as running
all n-1 steps.  Matrix product and union are the cellwise lifts of the
path-set operations; within one iteration every cell of the next matrix
depends only on the frozen previous matrix, so cells could be computed
concurrently.

brute_force_paths enumerates the same matrix by depth-first search over
directed devices.  It shares no code with the iteration and serves as the
independent oracle for it.
"""

from __future__ import annotations

from typing import Iterator

from .algebra import ONE, ZERO, DevicePath, PathMatrix, PathSet, concat_sets, union_sets
from .errors import DimensionMismatch, NoConvergence
from .topology import ZoneConduitModel


def identity_matrix(n: int) -> PathMatrix:
    return PathMatrix(
        tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
    )


def matrix_union(left: PathMatrix, right: PathMatrix) -> PathMatrix:
    if left.n != right.n:
        raise DimensionMismatch(f"union of {left.n}x{left.n} with {right.n}x{right.n}")
    return PathMatrix(
        tuple(
            tuple(union_sets(left.cell(i, j), right.cell(i, j)) for j in range(left.n))
            for i in range(left.n)
        )
    )


def matrix_product(left: PathMatrix, right: PathMatrix) -> PathMatrix:
    if left.n != right.n:
        raise DimensionMismatch(f"product of {left.n}x{left.n} with {right.n}x{right.n}")
    n = left.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = ZERO
            for q in range(n):
                acc = union_sets(acc, concat_sets(left.cell(i, q), right.cell(q, j)))
            row.append(acc)
        rows.append(tuple(row))
    return PathMatrix(tuple(rows))


def _check_inputs(adjacency: PathMatrix, transitivity: PathMatrix) -> None:
    if adjacency.n != transitivity.n:
        raise DimensionMismatch(
            f"adjacency is {adjacency.n}x{adjacency.n}, "
            f"transitivity is {transitivity.n}x{transitivity.n}"
        )
    n = adjacency.n
    for i in range(n):
        if adjacency.cell(i, i) != ONE:
            raise ValueError(f"adjacency diagonal ({i}, {i}) is not ONE")
        for j in range(n):
            if i != j and transitivity.cell(i, j) != ZERO:
                raise ValueError("transitivity matrix must be diagonal")


def _iterates(adjacency: PathMatrix, transitivity: PathMatrix) -> Iterator[PathMatrix]:
    """A<0>, A<1>, ... up to the first A<k> that equals A<k+1>.

    Lazy: a caller that stops after A<k> pays for k steps.
    """
    _check_inputs(adjacency, transitivity)
    identity = identity_matrix(adjacency.n)
    current = identity
    while True:
        yield current
        following = matrix_product(
            matrix_union(matrix_product(current, transitivity), identity), adjacency
        )
        if following == current:
            return
        current = following


def iterate(adjacency: PathMatrix, transitivity: PathMatrix, steps: int) -> PathMatrix:
    """The k-th iterate A<k>: all valid paths of at most k hops.

    Stops early at the fixpoint, which every later iterate equals.
    """
    for k, current in enumerate(_iterates(adjacency, transitivity)):
        if k == steps:
            break
    return current


def right_iterate(adjacency: PathMatrix, transitivity: PathMatrix) -> PathMatrix:
    """The closure A* = A<n-1>: every valid path between every zone pair.

    Runs at most n-1 steps and returns at the first fixpoint.
    """
    return iterate(adjacency, transitivity, adjacency.n - 1)


def check_convergence(adjacency: PathMatrix, transitivity: PathMatrix) -> int:
    """First k with A<k> = A<k+1>; raises NoConvergence if that exceeds n-1."""
    bound = adjacency.n - 1
    for k, _ in enumerate(_iterates(adjacency, transitivity)):
        if k > bound:
            raise NoConvergence(f"no fixpoint within {bound} iterations")
    return k


def brute_force_paths(model: ZoneConduitModel) -> PathMatrix:
    """Enumerate the closure by depth-first search; test oracle for right_iterate.

    A path may start and end at any zone but may only pass *through*
    transitive zones.  The three path-validity rules are enforced
    directly on the zone and device sets accumulated along each branch.
    """
    n = model.n
    transitive = [zone.transitive for zone in model.zones]
    by_from: dict[int, list] = {}
    for devs in model.conduits.values():
        for dev in devs:
            by_from.setdefault(dev.from_zone, []).append(dev)

    found: list[list[set[DevicePath]]] = [[set() for _ in range(n)] for _ in range(n)]
    for start in range(n):
        stack = [
            ((dev,), {start, dev.to_zone}, {dev.device_id})
            for dev in by_from.get(start, ())
        ]
        while stack:
            steps, zones_seen, devices_seen = stack.pop()
            end = steps[-1].to_zone
            found[start][end].add(DevicePath(steps))
            if not transitive[end]:
                continue
            for dev in by_from.get(end, ()):
                if dev.to_zone in zones_seen or dev.device_id in devices_seen:
                    continue
                stack.append(
                    (
                        steps + (dev,),
                        zones_seen | {dev.to_zone},
                        devices_seen | {dev.device_id},
                    )
                )

    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(ONE)
            else:
                row.append(PathSet(frozenset(found[i][j])))
        rows.append(tuple(row))
    return PathMatrix(tuple(rows))
