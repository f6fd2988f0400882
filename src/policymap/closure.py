"""All-pairs valid-path computation over the path-set semiring.

The closure of the single-step adjacency matrix A holds, in cell (i, j),
every valid device path from zone i to zone j, including multi-hop paths
through intermediate zones.  Intermediate zones must be transitive; the
diagonal transitivity matrix T injects that node property into the
iteration:

    A<0> = I,   A<k+1> = (A<k> . T  u  I) . A

Each iterate is a function of the one before, so once A<k> = A<k+1>
every later iterate is the same matrix.  Every prefix of a valid path is
valid, so that fixpoint comes at k = the longest path's hop count, and
elementary-path validity bounds that at n-1.

iterate evaluates the recurrence literally, as the paper's reference:
matrix product and union are the cellwise lifts of the path-set
operations, each step recomputes every path it already has, and the
iteration stops at the first fixpoint.

With no transitive zone the recurrence stops at A itself, so the closure
is A with the transitive zones opened.  edit_closure does that to any
closure: it drops the paths that use a dropped firewall or pass through
a zone that closes, then grows each path through the zones that open,
semi-naively (Bancilhon 1986), one device per round, each path a tuple
of indices into the closure's table of directed devices.  right_iterate,
the closure the pipeline uses, is edit_closure of A with T's zones
opened, and whatif's changed closure is edit_closure of the base one.
Both work in that int form, so no path object is built unless a cell's
PathSet is read.

brute_force_paths enumerates the same matrix by depth-first search over
directed devices.  It shares no code with the iteration and serves as the
independent oracle for it.
"""

from __future__ import annotations

from functools import reduce
from itertools import permutations
from typing import Collection, Sequence

from .algebra import (
    EPSILON,
    ONE,
    ZERO,
    DevicePath,
    PathMatrix,
    PathSet,
    concat_sets,
    union_sets,
)
from .errors import DimensionMismatch
from .topology import ZoneConduitModel


def identity_matrix(n: int) -> PathMatrix:
    return PathMatrix.build(n, lambda i, j: ONE if i == j else ZERO)


def matrix_union(left: PathMatrix, right: PathMatrix) -> PathMatrix:
    if left.n != right.n:
        raise DimensionMismatch(f"union of {left.n}x{left.n} with {right.n}x{right.n}")
    return PathMatrix.build(left.n, lambda i, j: union_sets(left.cell(i, j), right.cell(i, j)))


def matrix_product(left: PathMatrix, right: PathMatrix) -> PathMatrix:
    if left.n != right.n:
        raise DimensionMismatch(f"product of {left.n}x{left.n} with {right.n}x{right.n}")
    zones = range(left.n)
    return PathMatrix.build(
        left.n,
        lambda i, j: reduce(
            union_sets, (concat_sets(left.cell(i, q), right.cell(q, j)) for q in zones), ZERO
        ),
    )


def _check_inputs(adjacency: PathMatrix, transitivity: PathMatrix) -> None:
    if adjacency.n != transitivity.n:
        raise DimensionMismatch(
            f"adjacency is {adjacency.n}x{adjacency.n}, "
            f"transitivity is {transitivity.n}x{transitivity.n}"
        )
    n = adjacency.n
    for i in range(n):
        if list(adjacency.index_paths(i, i)) != [()]:
            raise ValueError(f"adjacency diagonal ({i}, {i}) is not ONE")
        for j in range(n):
            if i != j and transitivity.index_paths(i, j):
                raise ValueError("transitivity matrix must be diagonal")


def iterate(adjacency: PathMatrix, transitivity: PathMatrix, steps: int) -> PathMatrix:
    """The k-th iterate A<k>: all valid paths of at most k hops.

    Stops early at the fixpoint, which every later iterate equals.
    """
    _check_inputs(adjacency, transitivity)
    identity = identity_matrix(adjacency.n)
    current = identity
    for _ in range(steps):
        following = matrix_product(
            matrix_union(matrix_product(current, transitivity), identity), adjacency
        )
        if following == current:
            break
        current = following
    return current


def right_iterate(adjacency: PathMatrix, transitivity: PathMatrix) -> PathMatrix:
    """The closure A* = A<n-1>: every valid path between every zone pair.

    With no transitive zone, A<k+1> = (A<k> . T  u  I) . A is A itself,
    so A is the closure of the network with every zone closed, and A* is
    edit_closure of A that opens each zone T marks.  The result equals
    iterate(adjacency, transitivity, n-1), the paper's literal recurrence.

    Beyond iterate's input checks, raises ValueError unless every
    off-diagonal cell (i, j) of A holds only one-step paths from i to j
    and every diagonal cell of T is ONE or ZERO.
    """
    _check_inputs(adjacency, transitivity)
    n, table = adjacency.n, adjacency.table
    transitive = []
    for z in range(n):
        flag = list(transitivity.index_paths(z, z))
        if flag not in ([()], []):
            raise ValueError(f"transitivity diagonal ({z}, {z}) is neither ONE nor ZERO")
        transitive.append(bool(flag))
    for i, j in permutations(range(n), 2):
        for path in adjacency.index_paths(i, j):
            step = table[path[0]] if len(path) == 1 else None
            if step is None or (step.from_zone, step.to_zone) != (i, j):
                text = "".join(table[k].text() for k in path) or EPSILON.text()
                raise ValueError(
                    f"adjacency cell ({i}, {j}) holds {text}, "
                    f"not a one-step path from {i} to {j}"
                )
    return edit_closure(adjacency, [False] * n, transitive, ())


def edit_closure(
    astar: PathMatrix, before: Sequence[bool], after: Sequence[bool], dropped: Collection[str]
) -> PathMatrix:
    """The closure of astar's network (zone z transitive iff before[z]) with
    the firewalls named in dropped removed and z transitive iff after[z],
    over astar's table.  astar is unchanged.  astar's network is the
    devices of its one-step paths, not its whole table: an edited closure
    keeps its dropped firewalls in its table but in none of its cells, so
    it may be edited again.

    A kept path dies if it uses a dropped firewall's device or passes
    through a zone that closes.  A new path passes through a zone that
    opens; its prefix up to the first such zone z is a kept path (i, z).
    Those prefixes seed a semi-naive frontier (Bancilhon 1986): each round
    extends the paths the round before found by one live device leaving
    their end zone, and goes on from the zone reached only if it is
    transitive after the edit.  A path's one-step-shorter prefix is
    unique, so no path is found twice.  Each frontier entry carries
    bitmasks of the zones it visits and the physical devices it uses, so
    the validity test of one extension, the loop's only test, is two
    ``&`` operations; a cell's paths are checked again as DevicePaths when
    its PathSet is read.
    """
    n, table = astar.n, astar.table
    dead = {k for k, dev in enumerate(table if dropped else ()) if dev.device_id in dropped}
    closing = {
        z: {k for k, dev in enumerate(table) if dev.from_zone == z}
        for z in range(n) if before[z] and not after[z]
    }
    # A path from i leaves i only by its first step.
    cuts = [dead.union(*(ks for z, ks in closing.items() if z != i)) for i in range(n)]
    rows = [[[p for p in astar.index_paths(i, j) if cut.isdisjoint(p)] for j in range(n)]
            for i, cut in enumerate(cuts)]

    device_bit: dict[str, int] = {}
    bits = [device_bit.setdefault(dev.device_id, 1 << len(device_bit)) for dev in table]
    # Per zone: (index of a live directed device leaving it, its to-zone,
    # that zone's bit, its physical device's bit).
    leaving: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    live = {p[0] for row in rows for cell in row for p in cell if len(p) == 1}
    for k, dev in enumerate(table):
        if k in live:
            leaving[dev.from_zone].append((k, dev.to_zone, 1 << dev.to_zone, bits[k]))
    # Frontier entry: (start zone, end zone, path, visited-zone mask, used-device mask);
    # a kept path visits each zone and uses each device once, so its masks are sums.
    frontier = [
        (i, z, p, sum((1 << table[k].to_zone for k in p), 1 << i), sum(bits[k] for k in p))
        for z in range(n) if after[z] and not before[z]
        for i in range(n) if i != z
        for p in rows[i][z]
    ]
    while frontier:
        grown = []
        for start, end, path, zones, devices in frontier:
            row = rows[start]
            for k, to, zone_bit, bit in leaving[end]:
                if zones & zone_bit or devices & bit:
                    continue
                longer = path + (k,)
                row[to].append(longer)
                if after[to]:
                    grown.append((start, to, longer, zones | zone_bit, devices | bit))
        frontier = grown
    return PathMatrix(rows, table)


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

    found: dict[tuple[int, int], set[DevicePath]] = {}
    for start in range(n):
        stack = [
            ((dev,), {start, dev.to_zone}, {dev.device_id})
            for dev in by_from.get(start, ())
        ]
        while stack:
            steps, zones_seen, devices_seen = stack.pop()
            end = steps[-1].to_zone
            found.setdefault((start, end), set()).add(DevicePath(steps))
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

    return PathMatrix.build(
        n, lambda i, j: ONE if i == j else PathSet(frozenset(found.get((i, j), ())))
    )
