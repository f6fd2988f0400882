"""Idempotent semiring of validity-checked device paths.

A network of security zones connected through policy-enforcing devices
(firewalls, QoS routers, flow collectors) is modelled as a graph whose
edges are *directed devices*: a physical device oriented along an ordered
zone pair, with an ingress interface facing the source zone and an egress
interface facing the destination zone.

A device path is a chain of directed devices subject to three validity
rules:

* consecutive steps must chain (each step starts where the previous ended);
* the visited zone sequence is elementary (no zone appears twice,
  endpoints included);
* no physical device appears twice anywhere in the path, because reusing
  a device would force traffic back through an interface it already
  crossed.

Finite sets of such paths form an idempotent semiring under set union and
pairwise validity-checked concatenation, with ZERO the empty set and ONE
the set holding only the empty path.  A PathMatrix is a square matrix
of such sets indexed by zone.  It numbers its directed devices once, in
canonical order, and holds each path as a tuple of those numbers; a
cell's PathSet, each path a checked DevicePath, is built only when read.
All closure computation in this package is built on that algebra;
everything here is immutable, but for a PathMatrix's memo of idempotent
values, and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, TypeVar

T = TypeVar("T")

# Marker returned by concat_path for a product that is not a valid path.
# It is a lawful value of the algebra (the path-level analogue of the
# empty set), not an error.
INVALID = None


@dataclass(frozen=True)
class PhysicalDevice:
    """A policy-enforcing box identified by id, with named interfaces."""

    device_id: str
    interfaces: tuple[str, ...]

    def __post_init__(self):
        if not self.device_id:
            raise ValueError("device_id must be non-empty")
        if len(set(self.interfaces)) != len(self.interfaces):
            raise ValueError(
                f"duplicate interface names on device {self.device_id!r}"
            )


@dataclass(frozen=True)
class DirectedDevice:
    """A physical device oriented along the ordered zone pair (from, to).

    Zone ids are indices into the owning model's zone table.  The ingress
    interface faces the source zone, the egress interface the destination
    zone.  Equality is structural, so the same orientation of the same
    device compares equal wherever it appears.  The structural hash is
    computed once, at construction: every dict and set keyed by a device
    (closure, mapper, derivation) hashes it again and again.
    """

    physical: PhysicalDevice
    from_zone: int
    to_zone: int
    ingress_interface: str
    egress_interface: str

    def __post_init__(self):
        if self.from_zone == self.to_zone:
            raise ValueError(
                f"device {self.device_id!r}: from_zone == to_zone ({self.from_zone})"
            )
        if self.ingress_interface == self.egress_interface:
            raise ValueError(
                f"device {self.device_id!r}: ingress and egress interface "
                f"are both {self.ingress_interface!r}"
            )
        for name in (self.ingress_interface, self.egress_interface):
            if name not in self.physical.interfaces:
                raise ValueError(
                    f"interface {name!r} does not belong to device {self.device_id!r}"
                )
        # Not a field, so ==, repr and fields() stay structural.
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self) -> tuple:
        return (
            self.physical,
            self.from_zone,
            self.to_zone,
            self.ingress_interface,
            self.egress_interface,
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild from the fields: a string hash differs between processes,
        # so a pickled _hash would be stale.
        return (DirectedDevice, self._fields())

    @property
    def device_id(self) -> str:
        return self.physical.device_id

    def text(self) -> str:
        return f"{self.device_id}{zone_subscript(self.from_zone)}{zone_subscript(self.to_zone)}"

    # A message naming a step prints a device as its text, a table index as is.
    __str__ = text


def zone_subscript(zone: int) -> str:
    """Textual subscript of a zone: its 1-based position in the zone table."""
    return str(zone + 1)


Steps = tuple[DirectedDevice, ...]


def steps_key(steps: Steps):
    """Canonical path order: by zone sequence, then device ids, then interfaces."""
    zones = (steps[0].from_zone,) + tuple(s.to_zone for s in steps) if steps else ()
    return (
        zones,
        tuple(s.device_id for s in steps),
        tuple((s.ingress_interface, s.egress_interface) for s in steps),
    )


def _broken_rule(steps: Steps) -> int | str | None:
    """The first of the three validity rules that steps break, or None for a
    valid path: the index k of a step that does not chain to step k + 1,
    "zone revisited" or "physical device reused"."""
    for k in range(len(steps) - 1):
        if steps[k].to_zone != steps[k + 1].from_zone:
            return k
    if steps:
        zones = [steps[0].from_zone, *(s.to_zone for s in steps)]
        if len(set(zones)) != len(zones):
            return "zone revisited"
    ids = [s.device_id for s in steps]
    if len(set(ids)) != len(ids):
        return "physical device reused"
    return None


@dataclass(frozen=True)
class DevicePath:
    """A validity-checked sequence of directed devices; () is the empty path."""

    steps: tuple[DirectedDevice, ...] = ()

    def __post_init__(self):
        broken = _broken_rule(self.steps)
        if isinstance(broken, int):
            before, after = self.steps[broken : broken + 2]
            raise ValueError(f"broken chaining at step {broken}: {before.text()} then {after.text()}")
        if broken is not None:
            raise ValueError(f"{broken} in path {self.text()}")

    def zone_sequence(self) -> tuple[int, ...]:
        if not self.steps:
            return ()
        return (self.steps[0].from_zone,) + tuple(s.to_zone for s in self.steps)

    def device_ids(self) -> tuple[str, ...]:
        return tuple(s.device_id for s in self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    def sort_key(self):
        """Canonical ordering, the one steps_key gives the steps."""
        return steps_key(self.steps)

    def text(self) -> str:
        if not self.steps:
            return "ε"
        return "".join(s.text() for s in self.steps)


EPSILON = DevicePath(())


@dataclass(frozen=True)
class PathSet:
    """A finite, deduplicated set of device paths; an element of the semiring."""

    paths: frozenset[DevicePath] = frozenset()

    @classmethod
    def of(cls, *paths: DevicePath) -> "PathSet":
        return cls(frozenset(paths))

    def __len__(self) -> int:
        return len(self.paths)

    def __contains__(self, path: DevicePath) -> bool:
        return path in self.paths

    def __iter__(self) -> Iterator[DevicePath]:
        return iter(self.paths)

    def __bool__(self) -> bool:
        return bool(self.paths)

    def sorted_paths(self) -> list[DevicePath]:
        return sorted(self.paths, key=DevicePath.sort_key)

    def text(self) -> str:
        return "{" + ", ".join(p.text() for p in self.sorted_paths()) + "}"


ZERO = PathSet(frozenset())
ONE = PathSet(frozenset({EPSILON}))


def concat_path(a: DevicePath, b: DevicePath) -> Optional[DevicePath]:
    """Concatenate two paths, or return INVALID when the join breaks validity.

    The empty path is a two-sided identity.  A non-trivial join is valid
    when DevicePath accepts the joined steps under its three rules.
    """
    if not a.steps:
        return b
    if not b.steps:
        return a
    steps = a.steps + b.steps
    if _broken_rule(steps) is not None:
        return INVALID
    return DevicePath(steps)


def concat_sets(a: PathSet, b: PathSet) -> PathSet:
    """Pairwise path concatenation lifted to sets; invalid products are dropped.

    ZERO is absorbing on either side and ONE is a two-sided identity.
    """
    if not a.paths or not b.paths:
        return ZERO
    out = set()
    for x in a.paths:
        for y in b.paths:
            p = concat_path(x, y)
            if p is not INVALID:
                out.add(p)
    return PathSet(frozenset(out))


def union_sets(a: PathSet, b: PathSet) -> PathSet:
    """Set union: the idempotent, commutative addition of the semiring."""
    return PathSet(a.paths | b.paths)


def device_key(dev: DirectedDevice):
    """Canonical device order: by zone pair, then device id, then interfaces."""
    return (
        dev.from_zone,
        dev.to_zone,
        dev.device_id,
        dev.ingress_interface,
        dev.egress_interface,
        dev.physical.interfaces,
    )


def mask_indices(mask: int) -> list[int]:
    """The positions of mask's set bits, in ascending order: the table
    indices of a mask over a PathMatrix's table."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


class PathMatrix:
    """Square matrix of path sets indexed by zone, held as tuples of ints.

    Each path is a tuple of indices into ``table``, the matrix's directed
    devices in canonical order (device_key).  PathMatrix(rows, table)
    takes rows[i][j], cell (i, j)'s distinct valid paths in that form, as
    adjacency_matrix and right_iterate build them; PathMatrix.build(n,
    cell) takes a PathSet for each cell and numbers their devices itself.
    index_paths(i, j) gives the stored int tuples, in no promised order,
    and occurrence_indices the indices on them.  cell(i, j) maps the
    indices back to directed devices and builds its PathSet, each path
    checked by DevicePath, on first request.  Both are kept in memo, the
    matrix's one cache, where a reader of the matrix may keep what it
    derives from it (the mapper keeps its audit masks there).  Each entry
    is built once; readers racing on an entry build equal values.
    """

    def __init__(
        self, rows: Sequence[Sequence[Sequence[tuple[int, ...]]]], table: Sequence[DirectedDevice]
    ):
        if any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix is not square")
        self._rows = rows
        self.table = tuple(table)
        self._memo: dict = {}

    @classmethod
    def build(cls, n: int, cell: Callable[[int, int], PathSet]) -> "PathMatrix":
        """The n x n matrix whose cell (i, j) is cell(i, j)."""
        cells = {("cell", i, j): cell(i, j) for i in range(n) for j in range(n)}
        table = sorted(
            {step for paths in cells.values() for path in paths for step in path.steps},
            key=device_key,
        )
        number = {dev: k for k, dev in enumerate(table)}
        matrix = cls(
            [
                [[tuple(map(number.__getitem__, p.steps)) for p in cells["cell", i, j]]
                 for j in range(n)]
                for i in range(n)
            ],
            table,
        )
        matrix._memo.update(cells)
        return matrix

    def memo(self, key, build: Callable[[], T]) -> T:
        """The value kept under key, build() on its first request."""
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = build()
        return value

    @property
    def n(self) -> int:
        return len(self._rows)

    def index_paths(self, i: int, j: int) -> Sequence[tuple[int, ...]]:
        return self._rows[i][j]

    def occurrence_indices(self, i: int, j: int) -> frozenset[int]:
        paths = self._rows[i][j]
        return self.memo(("occurrences", i, j), lambda: frozenset().union(*paths))

    def cell(self, i: int, j: int) -> PathSet:
        paths, step = self._rows[i][j], self.table.__getitem__
        return self.memo(
            ("cell", i, j),
            lambda: PathSet(frozenset(DevicePath(tuple(map(step, p))) for p in paths)),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PathMatrix):
            return NotImplemented
        zones = range(self.n)
        return self.n == other.n and all(
            self.cell(i, j) == other.cell(i, j) for i in zones for j in zones
        )
