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
of such sets indexed by zone.  All closure computation in this package
is built on that algebra; everything here is immutable and safe to share
between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

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
    device compares equal wherever it appears.
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

    @property
    def device_id(self) -> str:
        return self.physical.device_id

    def reversed(self) -> "DirectedDevice":
        """The same device oriented the other way (interfaces swapped)."""
        return DirectedDevice(
            self.physical,
            self.to_zone,
            self.from_zone,
            self.egress_interface,
            self.ingress_interface,
        )

    def text(self) -> str:
        return f"{self.device_id}{zone_subscript(self.from_zone)}{zone_subscript(self.to_zone)}"


def zone_subscript(zone: int) -> str:
    """Textual subscript of a zone: its 1-based position in the zone table."""
    return str(zone + 1)


@dataclass(frozen=True)
class DevicePath:
    """A validity-checked sequence of directed devices; () is the empty path."""

    steps: tuple[DirectedDevice, ...] = ()

    def __post_init__(self):
        steps = self.steps
        for k in range(len(steps) - 1):
            if steps[k].to_zone != steps[k + 1].from_zone:
                raise ValueError(
                    f"broken chaining at step {k}: {steps[k].text()} then {steps[k + 1].text()}"
                )
        zones = self.zone_sequence()
        if len(set(zones)) != len(zones):
            raise ValueError(f"zone revisited in path {''.join(s.text() for s in steps)}")
        ids = [s.device_id for s in steps]
        if len(set(ids)) != len(ids):
            raise ValueError(f"physical device reused in path {''.join(s.text() for s in steps)}")

    def zone_sequence(self) -> tuple[int, ...]:
        if not self.steps:
            return ()
        return (self.steps[0].from_zone,) + tuple(s.to_zone for s in self.steps)

    def device_ids(self) -> tuple[str, ...]:
        return tuple(s.device_id for s in self.steps)

    @property
    def is_empty(self) -> bool:
        return not self.steps

    def __len__(self) -> int:
        return len(self.steps)

    def sort_key(self):
        """Canonical ordering: by zone sequence, then device ids, then interfaces."""
        return (
            self.zone_sequence(),
            self.device_ids(),
            tuple((s.ingress_interface, s.egress_interface) for s in self.steps),
        )

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

    def issubset(self, other: "PathSet") -> bool:
        return self.paths <= other.paths

    def text(self) -> str:
        return "{" + ", ".join(p.text() for p in self.sorted_paths()) + "}"


ZERO = PathSet(frozenset())
ONE = PathSet(frozenset({EPSILON}))


def concat_path(a: DevicePath, b: DevicePath) -> Optional[DevicePath]:
    """Concatenate two paths, or return INVALID when the join breaks validity.

    The empty path is a two-sided identity.  A non-trivial join requires
    a's terminal zone to equal b's initial zone, the joined zone sequence
    to stay elementary, and the two paths to share no physical device.
    """
    if not a.steps:
        return b
    if not b.steps:
        return a
    if a.steps[-1].to_zone != b.steps[0].from_zone:
        return INVALID
    if set(a.zone_sequence()).intersection(b.zone_sequence()[1:]):
        return INVALID
    if {s.device_id for s in a.steps} & {s.device_id for s in b.steps}:
        return INVALID
    return DevicePath(a.steps + b.steps)


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


@dataclass(frozen=True)
class PathMatrix:
    """Square matrix of path sets indexed by zone."""

    cells: tuple[tuple[PathSet, ...], ...]

    def __post_init__(self):
        for row in self.cells:
            if len(row) != len(self.cells):
                raise ValueError("matrix is not square")

    @property
    def n(self) -> int:
        return len(self.cells)

    def cell(self, i: int, j: int) -> PathSet:
        return self.cells[i][j]

    def __getitem__(self, index: tuple[int, int]) -> PathSet:
        i, j = index
        return self.cells[i][j]
