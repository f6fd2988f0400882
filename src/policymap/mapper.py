"""Placing rules on device interfaces and auditing existing placements.

Mapping: a rule between two zones is placed on the directed devices that
occur in the valid paths between them.  Security rules go on every device
of every path (defence in depth: any single device failure leaves the
policy enforced).  Measurement rules go on every device or, with the
``first`` strategy, on the first device of each path only.  QoS rules are
replicated with the full bandwidth on every device of every path, a
conservative over-provision since splitting a guarantee across paths has
no canonical ratio.

Each placement is one (device, interface, direction) site for a rule.  By
default a directed device receives its rule inbound on the ingress
interface; the egress-outbound convention is equivalent, since either one
filters source-to-destination traffic at that device, and auditing
accepts both.  Placements are held as ``Placements``, (rule, site) rows of
ints over a rule table and a site table of plain (device, interface,
direction) strings: ``map_rules`` returns them, ``verify_assignments``
audits them, and the documents read each rule and each site once.
``DeviceAssignment`` is the library's object view of one row:
``map_policy`` returns them sorted, and ``verify_assignments`` also
accepts them.

Auditing classifies every existing placement against the computed paths
for its rule's zone pair, each distinct (rule, site) row once:

* incorrect-firewall: the device occurs in no path (no interface of it
  could realize the filtering);
* incorrect-interface: the device occurs, but the interface is not an
  ingress or egress of any of its occurrences;
* incorrect-direction: device and interface match an occurrence, but the
  (interface, direction) pair does not filter source-to-destination
  traffic;
* correct otherwise.

The audit also re-derives the end-to-end policy each zone pair actually
implements and compares it with the intended rule value.

Both work on bit masks over the closure's directed-device table, kept
with the closure: for each site the rows name, the directed devices it
realizes, and for each zone pair, its occurrences; a misplaced site's
device gets one too.  The occurrences a pair's placed values reach are
grouped into one mask per value, and policy.fold_classes folds the
paths over those classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from typing import Iterable, Iterator, Sequence

from .algebra import DirectedDevice, PathMatrix, mask_indices
from .errors import ContextMismatch, UnreachablePair
from .policy import (
    EMPTY_SERVICES,
    MeasurementValue,
    PolicyContext,
    PolicyRule,
    PolicyValue,
    QosValue,
    SecurityValue,
    compose_parallel,
    fold_classes,
)
from .topology import ZoneConduitModel


class Direction(str, Enum):
    INBOUND = "inbound"
    OUTBOUND = "outbound"


class DirectionConvention(str, Enum):
    INGRESS_INBOUND = "ingress-inbound"
    EGRESS_OUTBOUND = "egress-outbound"


class MeasurementStrategy(str, Enum):
    ALL = "all"
    FIRST = "first"


class AssignmentClass(str, Enum):
    CORRECT = "correct"
    INCORRECT_FIREWALL = "incorrect_firewall"
    INCORRECT_INTERFACE = "incorrect_interface"
    INCORRECT_DIRECTION = "incorrect_direction"


@dataclass(frozen=True)
class DeviceAssignment:
    """One rule placed on a (device, interface, direction) triple."""

    device_id: str
    interface: str
    direction: Direction
    rule: PolicyRule

    @property
    def site(self) -> Site:
        return self.device_id, self.interface, self.direction.value


# A (device_id, interface, direction value) site, in plain strings.
Site = tuple[str, str, str]

# Each Direction by its value, read without an Enum call.
DIRECTIONS = {direction.value: direction for direction in Direction}
INBOUND, OUTBOUND = Direction.INBOUND.value, Direction.OUTBOUND.value


@dataclass(slots=True)
class Placements:
    """Rows of (rule index, site index), with multiplicity and in input order,
    over a table of distinct rules and a sorted table of plain sites.
    len() counts the rows; iterating gives each as a DeviceAssignment,
    sorted by (context, src, dst, device_id, interface, direction), with
    ties in row order."""

    rules: list[PolicyRule]
    sites: list[Site]
    rows: list[tuple[int, int]]

    @classmethod
    def of(cls, placed: Iterable[tuple[PolicyRule, Site]]) -> Placements:
        """The placements of (rule, site) pairs, each distinct rule and site interned."""
        ids: dict[PolicyRule, int] = {}
        pairs = [(ids.setdefault(rule, len(ids)), site) for rule, site in placed]
        sites = sorted({site for _, site in pairs})
        site_ids = {site: s for s, site in enumerate(sites)}
        return cls(list(ids), sites, [(r, site_ids[site]) for r, site in pairs])

    def select(self, ctx: PolicyContext) -> Placements:
        """The rows whose rule is of ctx, in order, over the same tables."""
        keep = [rule.context is ctx for rule in self.rules]
        return Placements(self.rules, self.sites, [row for row in self.rows if keep[row[0]]])

    def __len__(self) -> int:
        return len(self.rows)

    def order(self) -> list[int]:
        """The row indices in iteration order."""
        # Rules that share a (context, src, dst) key share a rank, so that
        # their rows at one site keep their order.
        keys = [(rule.context.value, rule.src, rule.dst) for rule in self.rules]
        rank = {key: k * len(self.sites) for k, key in enumerate(sorted(set(keys)))}
        base = [rank[key] for key in keys]
        codes = [base[r] + s for r, s in self.rows]
        return sorted(range(len(codes)), key=codes.__getitem__)

    def __iter__(self) -> Iterator[DeviceAssignment]:
        for r, s in map(self.rows.__getitem__, self.order()):
            device_id, interface, direction = self.sites[s]
            yield DeviceAssignment(device_id, interface, DIRECTIONS[direction], self.rules[r])


@dataclass(frozen=True)
class PolicyDelta:
    """A zone pair whose implemented policy violates the intended one."""

    src: str
    dst: str
    context: PolicyContext
    intended: PolicyValue
    derived: PolicyValue


@dataclass(frozen=True)
class VerificationReport:
    # The audited placements, and the class of each of their rows.
    findings: Placements
    classes: tuple[AssignmentClass, ...]
    deltas: tuple[PolicyDelta, ...]
    # QoS pairs implemented above the intended guarantee (informational).
    overprovisioned: tuple[PolicyDelta, ...] = ()

    @property
    def counts(self) -> dict[str, int]:
        return {cls.value: self.classes.count(cls) for cls in AssignmentClass}

    @property
    def error_count(self) -> int:
        return len(self.classes) - self.classes.count(AssignmentClass.CORRECT)

    @property
    def clean(self) -> bool:
        return self.error_count == 0 and not self.deltas


def realizations(dev: DirectedDevice) -> tuple[Site, Site]:
    """The (device, interface, direction) sites that filter dev's
    source-to-destination traffic: inbound on its ingress interface and
    outbound on its egress."""
    return (
        (dev.device_id, dev.ingress_interface, INBOUND),
        (dev.device_id, dev.egress_interface, OUTBOUND),
    )


def map_rules(
    rules: Iterable[PolicyRule],
    astar: PathMatrix,
    model: ZoneConduitModel,
    convention: DirectionConvention = DirectionConvention.INGRESS_INBOUND,
    measurement_strategy: MeasurementStrategy = MeasurementStrategy.ALL,
) -> tuple[Placements, list[PolicyRule]]:
    """The placements of all rules and the rules with no valid path, in the
    given order; any other error stops the walk."""
    side = 0 if convention is DirectionConvention.INGRESS_INBOUND else 1
    realized = [realizations(dev)[side] for dev in astar.table]
    sites = sorted(set(realized))
    site_ids = {site: s for s, site in enumerate(sites)}
    site_of = [site_ids[site] for site in realized]
    rule_ids: dict[PolicyRule, int] = {}
    rows: list[tuple[int, int]] = []
    unreachable: list[PolicyRule] = []
    for rule in rules:
        r = rule_ids.setdefault(rule, len(rule_ids))
        i = model.zone_index(rule.src)
        j = model.zone_index(rule.dst)
        targets: Iterable[int] = astar.occurrence_indices(i, j)
        if not targets:
            unreachable.append(rule)
            continue
        if rule.context is PolicyContext.MEASUREMENT and (
            measurement_strategy is MeasurementStrategy.FIRST
        ):
            targets = {path[0] for path in astar.index_paths(i, j)}
        rows.extend((r, s) for s in {site_of[k] for k in targets})
    return Placements(list(rule_ids), sites, rows), unreachable


def require_reachable(mapped: tuple[Placements, list[PolicyRule]]) -> Placements:
    """map_rules' placements; raises UnreachablePair for its first unreachable rule."""
    placements, unreachable = mapped
    if unreachable:
        first = unreachable[0]
        raise UnreachablePair(first.src, first.dst, first.context.value)
    return placements


def _check_context(ctx: PolicyContext, task: str, rules: Iterable[PolicyRule], kind="rule"):
    """Raise ContextMismatch for the first rule not of ctx; kind and task name it in the message."""
    for rule in rules:
        if rule.context is not ctx:
            raise ContextMismatch(f"{rule.context.value} {kind} passed to {ctx.value} {task}")


def map_policy(
    ctx: PolicyContext,
    rules: Sequence[PolicyRule],
    astar: PathMatrix,
    model: ZoneConduitModel,
    convention: DirectionConvention = DirectionConvention.INGRESS_INBOUND,
    measurement_strategy: MeasurementStrategy = MeasurementStrategy.ALL,
) -> list[DeviceAssignment]:
    """Map every rule of one context onto concrete device assignments.

    Checks every rule's context before mapping any, and raises UnreachablePair
    for the first unreachable rule.  The result is in Placements order.
    """
    _check_context(ctx, "mapping", rules)
    mapped = map_rules(rules, astar, model, convention, measurement_strategy)
    return list(require_reachable(mapped))


def _site_masks(astar: PathMatrix, sites: Iterable[Site]) -> dict:
    """Masks over astar.table, kept with astar: for each of sites, the
    directed devices it realizes.  The sites not yet kept take one pass."""
    masks = astar.memo("site masks", dict)
    built = {site: 0 for site in sites if site not in masks}
    for k, dev in enumerate(astar.table if built else ()):
        for site in realizations(dev):
            if site in built:
                built[site] |= 1 << k
    masks.update(built)
    return masks


def _occurrence_mask(astar: PathMatrix, i: int, j: int) -> int:
    """The mask over astar.table of cell (i, j)'s occurrences, kept with astar."""
    return astar.memo(
        ("occurrence mask", i, j), lambda: sum(1 << k for k in astar.occurrence_indices(i, j))
    )


def classify_site(site: Site, masks: dict, cell: int, table: Sequence) -> AssignmentClass:
    """Class of a placement at site, given _site_masks, its rule's zone pair's
    occurrence mask and the table; a misplaced site's device mask joins masks."""
    if masks[site] & cell:
        return AssignmentClass.CORRECT
    device, interface, _ = site
    if device not in masks:
        masks[device] = sum(1 << k for k, dev in enumerate(table) if dev.device_id == device)
    named = masks[device] & cell
    if not named:
        return AssignmentClass.INCORRECT_FIREWALL
    if all(interface not in (table[k].ingress_interface, table[k].egress_interface)
           for k in mask_indices(named)):
        return AssignmentClass.INCORRECT_INTERFACE
    return AssignmentClass.INCORRECT_DIRECTION


def _device_classes(
    ctx: PolicyContext, values: Sequence[PolicyValue], reached: Sequence[tuple[int, int]],
    cell: int, default: PolicyValue,
) -> list[tuple[PolicyValue, int]]:
    """The occurrences of cell as (value, mask) classes, by the value each
    implements.  reached holds, per distinct placement in row order, its
    value's index into values (equal values share one) and the occurrences
    its site realizes.  An occurrence no placement reaches implements
    default; one reached by two or more values, their parallel composition
    in row order, taken in ascending occurrence order so that the first to
    raise is the lowest."""
    masks: dict[int, int] = {}
    seen = shared = 0
    for v, mask in reached:
        own = masks.get(v, 0)
        shared |= seen & mask & ~own
        seen |= mask
        masks[v] = own | mask
    classes = [(values[v], mask & ~shared) for v, mask in masks.items() if mask & ~shared]
    for k in mask_indices(shared):
        found = [values[v] for v in dict.fromkeys(v for v, mask in reached if mask >> k & 1)]
        classes.append((reduce(lambda p, q: compose_parallel(ctx, p, q), found), 1 << k))
    if cell & ~seen:
        classes.append((default, cell & ~seen))
    return classes


def verify_assignments(
    ctx: PolicyContext,
    rules: Sequence[PolicyRule],
    astar: PathMatrix,
    model: ZoneConduitModel,
    existing: Placements | Iterable[DeviceAssignment],
) -> VerificationReport:
    """Audit existing placements of one context against the intended rules."""
    if not isinstance(existing, Placements):
        existing = Placements.of((a.rule, a.site) for a in existing)
    _check_context(ctx, "verification", rules)
    placed, sites = existing.rules, existing.sites
    # Each distinct row once, in the order it first appears.
    distinct = dict.fromkeys(existing.rows)
    pair_of = {r: (placed[r].src, placed[r].dst) for r, _ in distinct}
    _check_context(ctx, "verification", (placed[r] for r in pair_of), "assignment")
    intended = {(rule.src, rule.dst): rule for rule in rules}
    by_pair: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for r, s in distinct:
        by_pair.setdefault(pair_of[r], []).append((r, s))

    pairs = sorted(set(intended) | set(by_pair))
    zones = {(src, dst): (model.zone_index(src), model.zone_index(dst)) for src, dst in pairs}
    masks = _site_masks(astar, sites)
    cells = {pair: _occurrence_mask(astar, i, j) for pair, (i, j) in zones.items()}
    class_of = {(r, s): classify_site(sites[s], masks, cells[pair_of[r]], astar.table)
                for r, s in distinct}

    # Each distinct placed value once, by equality, so that the rows of a
    # pair are grouped by value without hashing one per row.
    interned: dict[PolicyValue, int] = {}
    value_of = {r: interned.setdefault(placed[r].value, len(interned)) for r in pair_of}
    values = list(interned)
    deltas = []
    overprovisioned = []
    default = _absent_device_default(ctx)
    for (src, dst), (i, j) in zones.items():
        paths = astar.index_paths(i, j)
        if not paths:
            # Unreachable pair: nothing flows, so nothing to compare; any
            # placements here were already flagged incorrect-firewall.
            continue
        cell = cells[src, dst]
        # A placement gives an occurrence its value only if it sits where
        # that orientation's traffic actually crosses the device.
        reached = [
            (value_of[r], masks[sites[s]] & cell) for r, s in by_pair.get((src, dst), ())
        ]
        classes = _device_classes(ctx, values, reached, cell, default)
        derived = fold_classes(ctx, classes, paths, astar.table)
        rule = intended.get((src, dst))
        wanted = rule.value if rule is not None else default
        if ctx is PolicyContext.QOS:
            assert isinstance(derived, QosValue) and isinstance(wanted, QosValue)
            delta = PolicyDelta(src, dst, ctx, wanted, derived)
            if derived.bandwidth < wanted.bandwidth:
                deltas.append(delta)
            elif wanted.bandwidth < derived.bandwidth:
                overprovisioned.append(delta)
        elif derived != wanted:
            deltas.append(PolicyDelta(src, dst, ctx, wanted, derived))

    return VerificationReport(
        findings=existing,
        classes=tuple(map(class_of.__getitem__, existing.rows)),
        deltas=tuple(deltas),
        overprovisioned=tuple(overprovisioned),
    )


def _absent_device_default(ctx: PolicyContext) -> PolicyValue:
    """Value a device implements when nothing is assigned to it.

    A firewall with no rule denies everything, a collector with no rule
    captures nothing, a QoS device with no rule guarantees nothing.
    """
    if ctx is PolicyContext.SECURITY:
        return SecurityValue(EMPTY_SERVICES)
    if ctx is PolicyContext.MEASUREMENT:
        return MeasurementValue(EMPTY_SERVICES)
    return QosValue(Fraction(0), None)

