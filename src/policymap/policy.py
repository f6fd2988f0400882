"""Policy contexts, their composition operators, and the policy file grammar.

Three policy contexts are supported.  Each fixes the meaning of serial
composition (devices along one path) and parallel composition (alternative
paths):

================  =======================  =======================
context           serial                   parallel
================  =======================  =======================
security          service intersection     service union
qos               bandwidth minimum        bandwidth sum
measurement       service union            service intersection
================  =======================  =======================

Security composes conservatively: a packet survives a path only if every
firewall on it permits the packet, while any one of several parallel paths
may let it through.  A measurement policy is guaranteed only for flows
captured on *every* alternative path, but along one path each collector
adds coverage.  QoS guarantees are capped by the weakest device in series
and add up across disjoint paths.

The end-to-end value implemented by a set of device paths is the parallel
combination over paths of the serial combination of the per-device values
along each path.

Policy files are line-oriented ('#' starts a comment):

    zone <name> transitive|non-transitive
    security <src> -> <dst> : <proto>/<port|lo-hi|any>[, ...]
    qos <src> -> <dst> : <proto>/<port> min <number>MB/s
    measure <src> -> <dst> : collect <proto>/<port|any>

At most one rule per ordered zone pair per context; duplicates are a
parse error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from typing import Mapping, Union

from .algebra import DirectedDevice, PathSet
from .errors import (
    ContextMismatch,
    EmptyPathSet,
    MissingDevicePolicy,
    PolicyParseError,
)


class PolicyContext(str, Enum):
    SECURITY = "security"
    QOS = "qos"
    MEASUREMENT = "measurement"


PROTOCOLS = ("icmp", "tcp", "udp")
PORT_MIN = 0
PORT_MAX = 65535


@dataclass(frozen=True)
class ServiceSet:
    """A normalized set of (protocol, port range) predicates.

    Ranges are closed intervals, kept sorted with overlapping or adjacent
    ranges of the same protocol merged, so structural equality is semantic
    equality.  EMPTY_SERVICES (deny-all) and ANY_SERVICES bound the subset
    order.
    """

    ranges: tuple[tuple[str, int, int], ...] = ()

    def __post_init__(self):
        if self.ranges != _normalize(self.ranges):
            raise ValueError("ServiceSet ranges are not normalized; use from_ranges")

    @classmethod
    def from_ranges(cls, ranges) -> "ServiceSet":
        return cls(_normalize(tuple(ranges)))

    def union(self, other: "ServiceSet") -> "ServiceSet":
        return ServiceSet.from_ranges(self.ranges + other.ranges)

    def intersection(self, other: "ServiceSet") -> "ServiceSet":
        out = []
        for proto, lo, hi in self.ranges:
            for proto2, lo2, hi2 in other.ranges:
                if proto != proto2:
                    continue
                low, high = max(lo, lo2), min(hi, hi2)
                if low <= high:
                    out.append((proto, low, high))
        return ServiceSet.from_ranges(out)

    def issubset(self, other: "ServiceSet") -> bool:
        return self.intersection(other) == self

    def __bool__(self) -> bool:
        return bool(self.ranges)

    def text(self) -> str:
        if self == ANY_SERVICES:
            return "any/any"
        if not self.ranges:
            return "none"
        parts = []
        for proto, lo, hi in self.ranges:
            if (lo, hi) == (PORT_MIN, PORT_MAX):
                parts.append(f"{proto}/any")
            elif lo == hi:
                parts.append(f"{proto}/{lo}")
            else:
                parts.append(f"{proto}/{lo}-{hi}")
        return ", ".join(parts)


def _normalize(ranges) -> tuple[tuple[str, int, int], ...]:
    for proto, lo, hi in ranges:
        if proto not in PROTOCOLS:
            raise ValueError(f"unknown protocol {proto!r}")
        if not (PORT_MIN <= lo <= hi <= PORT_MAX):
            raise ValueError(f"bad port range {lo}-{hi}")
    out = []
    for proto in PROTOCOLS:
        spans = sorted((lo, hi) for p, lo, hi in ranges if p == proto)
        merged: list[list[int]] = []
        for lo, hi in spans:
            if merged and lo <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        out.extend((proto, lo, hi) for lo, hi in merged)
    return tuple(out)


EMPTY_SERVICES = ServiceSet()
ANY_SERVICES = ServiceSet.from_ranges(
    (proto, PORT_MIN, PORT_MAX) for proto in PROTOCOLS
)


# Bandwidth ordered above every rational: the serial identity for qos.
UNBOUNDED = math.inf
Bandwidth = Union[Fraction, float]


@dataclass(frozen=True)
class SecurityValue:
    services: ServiceSet


@dataclass(frozen=True)
class MeasurementValue:
    services: ServiceSet


@dataclass(frozen=True)
class QosValue:
    """Bandwidth guarantee in MB/s for one service predicate.

    ``service`` None is the predicate wildcard used only by the
    composition identities; parsing always yields a concrete predicate.
    """

    bandwidth: Bandwidth
    service: ServiceSet | None

    def __post_init__(self):
        if self.bandwidth < 0:
            raise ValueError("bandwidth must be non-negative")


PolicyValue = Union[SecurityValue, MeasurementValue, QosValue]

_VALUE_CONTEXT = {
    SecurityValue: PolicyContext.SECURITY,
    MeasurementValue: PolicyContext.MEASUREMENT,
    QosValue: PolicyContext.QOS,
}


def context_of(value: PolicyValue) -> PolicyContext:
    try:
        return _VALUE_CONTEXT[type(value)]
    except KeyError:
        raise ContextMismatch(f"not a policy value: {value!r}") from None


def _require_context(ctx: PolicyContext, *values: PolicyValue) -> None:
    for value in values:
        if context_of(value) is not ctx:
            raise ContextMismatch(
                f"{context_of(value).value} value composed in {ctx.value} context"
            )


def _merge_qos_predicates(p: QosValue, q: QosValue) -> ServiceSet | None:
    if p.service is None:
        return q.service
    if q.service is None:
        return p.service
    if p.service != q.service:
        raise ContextMismatch(
            f"qos composition over different predicates "
            f"({p.service.text()} vs {q.service.text()})"
        )
    return p.service


def compose_serial(ctx: PolicyContext, p: PolicyValue, q: PolicyValue) -> PolicyValue:
    """Combine the values of two devices in series on one path."""
    _require_context(ctx, p, q)
    if ctx is PolicyContext.SECURITY:
        return SecurityValue(p.services.intersection(q.services))
    if ctx is PolicyContext.MEASUREMENT:
        return MeasurementValue(p.services.union(q.services))
    return QosValue(min(p.bandwidth, q.bandwidth), _merge_qos_predicates(p, q))


def compose_parallel(ctx: PolicyContext, p: PolicyValue, q: PolicyValue) -> PolicyValue:
    """Combine the values of two alternative paths."""
    _require_context(ctx, p, q)
    if ctx is PolicyContext.SECURITY:
        return SecurityValue(p.services.union(q.services))
    if ctx is PolicyContext.MEASUREMENT:
        return MeasurementValue(p.services.intersection(q.services))
    return QosValue(p.bandwidth + q.bandwidth, _merge_qos_predicates(p, q))


def serial_identity(ctx: PolicyContext) -> PolicyValue:
    if ctx is PolicyContext.SECURITY:
        return SecurityValue(ANY_SERVICES)
    if ctx is PolicyContext.MEASUREMENT:
        return MeasurementValue(EMPTY_SERVICES)
    return QosValue(UNBOUNDED, None)


def parallel_identity(ctx: PolicyContext) -> PolicyValue:
    if ctx is PolicyContext.SECURITY:
        return SecurityValue(EMPTY_SERVICES)
    if ctx is PolicyContext.MEASUREMENT:
        return MeasurementValue(ANY_SERVICES)
    return QosValue(Fraction(0), None)


def derive_end_to_end(
    ctx: PolicyContext,
    device_policies: Mapping[DirectedDevice, PolicyValue],
    paths: PathSet,
) -> PolicyValue:
    """End-to-end value realized by per-device policies over a path set.

    Parallel combination over paths of the serial combination along each
    path.  The empty path contributes the serial identity.  ``paths``
    must be nonempty (an empty set means the pair is unreachable) and
    ``device_policies`` must cover every device appearing in it.
    """
    if not paths:
        raise EmptyPathSet("cannot derive a policy over an empty path set")

    def path_value(path) -> PolicyValue:
        if path.is_empty:
            return serial_identity(ctx)
        values = []
        for step in path.steps:
            try:
                values.append(device_policies[step])
            except KeyError:
                raise MissingDevicePolicy(
                    f"no policy value for device {step.text()}"
                ) from None
        return reduce(lambda p, q: compose_serial(ctx, p, q), values)

    return reduce(
        lambda p, q: compose_parallel(ctx, p, q),
        (path_value(path) for path in paths.sorted_paths()),
    )


@dataclass(frozen=True)
class PolicyRule:
    """An intended end-to-end policy between two named zones."""

    src: str
    dst: str
    value: PolicyValue

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError(f"rule with identical endpoints {self.src!r}")

    @property
    def context(self) -> PolicyContext:
        return context_of(self.value)


@dataclass(frozen=True)
class PolicyDocument:
    transitivity: dict[str, bool]
    rules: tuple[PolicyRule, ...]

    def rules_for(self, ctx: PolicyContext) -> list[PolicyRule]:
        return [rule for rule in self.rules if rule.context is ctx]


_ZONE_RE = re.compile(r"^zone\s+(\S+)\s+(transitive|non-transitive)$")
_SECURITY_RE = re.compile(r"^security\s+(\S+)\s*->\s*(\S+)\s*:\s*(.+)$")
_QOS_RE = re.compile(
    r"^qos\s+(\S+)\s*->\s*(\S+)\s*:\s*(\S+)\s+min\s+(\d+(?:\.\d+)?)\s*MB/s$"
)
_MEASURE_RE = re.compile(r"^measure\s+(\S+)\s*->\s*(\S+)\s*:\s*collect\s+(\S+)$")


def parse_service_token(token: str) -> list[tuple[str, int, int]]:
    """One <proto>/<port|lo-hi|any> predicate as a list of concrete ranges."""
    if "/" not in token:
        raise ValueError(f"bad service {token!r}, expected proto/ports")
    proto, _, ports = token.partition("/")
    protos = list(PROTOCOLS) if proto == "any" else [proto]
    for p in protos:
        if p not in PROTOCOLS:
            raise ValueError(f"unknown protocol {proto!r}")
    if ports == "any":
        lo, hi = PORT_MIN, PORT_MAX
    elif "-" in ports:
        lo_text, _, hi_text = ports.partition("-")
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(ports)
    if not (PORT_MIN <= lo <= hi <= PORT_MAX):
        raise ValueError(f"bad port range {ports!r}")
    return [(p, lo, hi) for p in protos]


def parse_services(text: str) -> ServiceSet:
    ranges = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty service in list")
        ranges.extend(parse_service_token(token))
    return ServiceSet.from_ranges(ranges)


def parse_policy(text: str) -> PolicyDocument:
    """Parse a policy file; PolicyParseError carries the offending line."""
    transitivity: dict[str, bool] = {}
    rules: list[PolicyRule] = []
    seen: set[tuple[PolicyContext, str, str]] = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue

        if match := _ZONE_RE.match(line):
            name, flag = match.groups()
            if name in transitivity:
                raise PolicyParseError(line_no, f"zone {name!r} declared twice")
            transitivity[name] = flag == "transitive"
            continue

        try:
            if match := _SECURITY_RE.match(line):
                src, dst, services = match.groups()
                value: PolicyValue = SecurityValue(parse_services(services))
            elif match := _QOS_RE.match(line):
                src, dst, service, amount = match.groups()
                predicate = ServiceSet.from_ranges(parse_service_token(service))
                value = QosValue(Fraction(amount), predicate)
            elif match := _MEASURE_RE.match(line):
                src, dst, service = match.groups()
                value = MeasurementValue(
                    ServiceSet.from_ranges(parse_service_token(service))
                )
            else:
                raise PolicyParseError(line_no, f"unrecognized line {line!r}")
            if src == dst:
                raise PolicyParseError(line_no, f"rule endpoints are both {src!r}")
            rule = PolicyRule(src, dst, value)
        except PolicyParseError:
            raise
        except ValueError as exc:
            raise PolicyParseError(line_no, str(exc)) from exc

        key = (rule.context, src, dst)
        if key in seen:
            raise PolicyParseError(
                line_no, f"duplicate {rule.context.value} rule for {src} -> {dst}"
            )
        seen.add(key)
        rules.append(rule)

    return PolicyDocument(transitivity=transitivity, rules=tuple(rules))


def load_policy(path) -> PolicyDocument:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_policy(handle.read())
