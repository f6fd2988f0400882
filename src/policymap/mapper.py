"""Placing rules on device interfaces and auditing existing placements.

Mapping: a rule between two zones is placed on the directed devices that
occur in the valid paths between them.  Security rules go on every device
of every path (defence in depth: any single device failure leaves the
policy enforced).  Measurement rules go on every device or, with the
``first`` strategy, on the first device of each path only.  QoS rules are
replicated with the full bandwidth on every device of every path, a
conservative over-provision since splitting a guarantee across paths has
no canonical ratio.

Each placement is one (device, interface, direction) assignment.  By
default a directed device receives its rule inbound on the ingress
interface; the egress-outbound convention is equivalent, since either one
filters source-to-destination traffic at that device, and auditing
accepts both.

Auditing classifies every existing assignment against the computed paths
for its rule's zone pair:

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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence

from .algebra import DirectedDevice, PathMatrix
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
    derive_end_to_end,
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


ERROR_CLASSES = (
    AssignmentClass.INCORRECT_FIREWALL,
    AssignmentClass.INCORRECT_INTERFACE,
    AssignmentClass.INCORRECT_DIRECTION,
)


@dataclass(frozen=True)
class DeviceAssignment:
    """One rule placed on a (device, interface, direction) triple."""

    device_id: str
    interface: str
    direction: Direction
    rule: PolicyRule

    @property
    def site(self) -> tuple[str, str, Direction]:
        return self.device_id, self.interface, self.direction

    def sort_key(self):
        return (
            self.rule.context.value,
            self.rule.src,
            self.rule.dst,
            self.device_id,
            self.interface,
            self.direction.value,
        )


@dataclass(frozen=True)
class AssignmentFinding:
    assignment: DeviceAssignment
    classification: AssignmentClass


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
    findings: tuple[AssignmentFinding, ...]
    deltas: tuple[PolicyDelta, ...]
    # QoS pairs implemented above the intended guarantee (informational).
    overprovisioned: tuple[PolicyDelta, ...] = ()

    @property
    def counts(self) -> dict[str, int]:
        out = {cls.value: 0 for cls in AssignmentClass}
        for finding in self.findings:
            out[finding.classification.value] += 1
        return out

    @property
    def error_count(self) -> int:
        counts = self.counts
        return sum(counts[cls.value] for cls in ERROR_CLASSES)

    @property
    def clean(self) -> bool:
        return self.error_count == 0 and not self.deltas


def path_devices(astar: PathMatrix, i: int, j: int) -> frozenset[DirectedDevice]:
    """Every directed-device occurrence across the valid paths from i to j."""
    out = set()
    for path in astar.cell(i, j):
        out.update(path.steps)
    return frozenset(out)


def realizations(dev: DirectedDevice) -> tuple[tuple[str, Direction], tuple[str, Direction]]:
    """The (interface, direction) pairs that filter dev's source-to-destination
    traffic: inbound on its ingress interface and outbound on its egress."""
    return (dev.ingress_interface, Direction.INBOUND), (dev.egress_interface, Direction.OUTBOUND)


def _placement(dev: DirectedDevice, convention: DirectionConvention) -> tuple[str, Direction]:
    ingress_inbound, egress_outbound = realizations(dev)
    if convention is DirectionConvention.INGRESS_INBOUND:
        return ingress_inbound
    return egress_outbound


def assignments_for_rule(
    rule: PolicyRule,
    astar: PathMatrix,
    model: ZoneConduitModel,
    convention: DirectionConvention = DirectionConvention.INGRESS_INBOUND,
    measurement_strategy: MeasurementStrategy = MeasurementStrategy.ALL,
) -> list[DeviceAssignment]:
    """Assignments implementing one rule; raises UnreachablePair if impossible."""
    i = model.zone_index(rule.src)
    j = model.zone_index(rule.dst)
    paths = astar.cell(i, j)
    if not paths:
        raise UnreachablePair(rule.src, rule.dst, rule.context.value)

    if rule.context is PolicyContext.MEASUREMENT and (
        measurement_strategy is MeasurementStrategy.FIRST
    ):
        targets: Iterable[DirectedDevice] = {
            path.steps[0] for path in paths if path.steps
        }
    else:
        targets = path_devices(astar, i, j)

    placed = {(dev.device_id, *_placement(dev, convention)) for dev in targets}
    assignments = [
        DeviceAssignment(device_id, interface, direction, rule)
        for device_id, interface, direction in placed
    ]
    assignments.sort(key=DeviceAssignment.sort_key)
    return assignments


def map_policy(
    ctx: PolicyContext,
    rules: Sequence[PolicyRule],
    astar: PathMatrix,
    model: ZoneConduitModel,
    convention: DirectionConvention = DirectionConvention.INGRESS_INBOUND,
    measurement_strategy: MeasurementStrategy = MeasurementStrategy.ALL,
) -> list[DeviceAssignment]:
    """Map every rule of one context onto concrete device assignments."""
    out: list[DeviceAssignment] = []
    for rule in rules:
        if rule.context is not ctx:
            raise ContextMismatch(
                f"{rule.context.value} rule passed to {ctx.value} mapping"
            )
        out.extend(
            assignments_for_rule(rule, astar, model, convention, measurement_strategy)
        )
    out.sort(key=DeviceAssignment.sort_key)
    return out


Realizers = dict[tuple[str, str, Direction], list[DirectedDevice]]


def realizer_index(occurrences: Iterable[DirectedDevice]) -> Realizers:
    """(device, interface, direction) -> the occurrences an assignment there filters."""
    index: Realizers = {}
    for dev in occurrences:
        for interface, direction in realizations(dev):
            index.setdefault((dev.device_id, interface, direction), []).append(dev)
    return index


def classify_assignment(assignment: DeviceAssignment, index: Realizers) -> AssignmentClass:
    """Class of one assignment, given the realizer index of its rule's zone pair."""
    if assignment.site in index:
        return AssignmentClass.CORRECT
    if all(device_id != assignment.device_id for device_id, _, _ in index):
        return AssignmentClass.INCORRECT_FIREWALL
    if all(
        (device_id, interface) != (assignment.device_id, assignment.interface)
        for device_id, interface, _ in index
    ):
        return AssignmentClass.INCORRECT_INTERFACE
    return AssignmentClass.INCORRECT_DIRECTION


def verify_assignments(
    ctx: PolicyContext,
    rules: Sequence[PolicyRule],
    astar: PathMatrix,
    model: ZoneConduitModel,
    existing: Sequence[DeviceAssignment],
) -> VerificationReport:
    """Audit existing assignments of one context against the intended rules."""
    intended: dict[tuple[str, str], PolicyRule] = {}
    for rule in rules:
        if rule.context is not ctx:
            raise ContextMismatch(
                f"{rule.context.value} rule passed to {ctx.value} verification"
            )
        intended[(rule.src, rule.dst)] = rule

    by_pair: dict[tuple[str, str], list[DeviceAssignment]] = {}
    for assignment in existing:
        if assignment.rule.context is not ctx:
            raise ContextMismatch(
                f"{assignment.rule.context.value} assignment passed to "
                f"{ctx.value} verification"
            )
        by_pair.setdefault((assignment.rule.src, assignment.rule.dst), []).append(
            assignment
        )

    pairs = sorted(set(intended) | set(by_pair))
    indexes: dict[tuple[str, str], Realizers] = {}
    for src, dst in pairs:
        i, j = model.zone_index(src), model.zone_index(dst)
        indexes[(src, dst)] = realizer_index(path_devices(astar, i, j))

    findings = [
        AssignmentFinding(
            assignment,
            classify_assignment(assignment, indexes[(assignment.rule.src, assignment.rule.dst)]),
        )
        for assignment in existing
    ]

    deltas = []
    overprovisioned = []
    default = _absent_device_default(ctx)
    for src, dst in pairs:
        i, j = model.zone_index(src), model.zone_index(dst)
        paths = astar.cell(i, j)
        if not paths:
            # Unreachable pair: nothing flows, so nothing to compare; any
            # assignments here were already flagged incorrect-firewall.
            continue
        index = indexes[(src, dst)]
        # An assignment gives an occurrence its value only if it sits where
        # that orientation's traffic actually crosses the device.
        values: dict[DirectedDevice, list[PolicyValue]] = {
            dev: [] for devs in index.values() for dev in devs
        }
        for assignment in by_pair.get((src, dst), ()):
            for dev in index.get(assignment.site, ()):
                if assignment.rule.value not in values[dev]:
                    values[dev].append(assignment.rule.value)
        device_policies = {
            dev: reduce(lambda p, q: compose_parallel(ctx, p, q), found) if found else default
            for dev, found in values.items()
        }

        derived = derive_end_to_end(ctx, device_policies, paths)
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
        findings=tuple(findings),
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

