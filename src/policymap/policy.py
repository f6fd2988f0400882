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
along each path.  fold_classes, the one fold, takes each value's devices
as a bit mask over a device table and folds groups of paths that share
one set of values, each group once with its number of paths, and that
is exact: serial composition is idempotent and commutative in all three
contexts, so a path's value depends only on the set of distinct values
along it; parallel composition is idempotent for security and
measurement, so a repeated set adds nothing there, while the qos sum of
k paths in one set is k times that set's serial value, one
multiplication (exact for Fraction; UNBOUNDED stays UNBOUNDED).
Parallel composition commutes, so paths come in any order.  On an error
the paths are folded again path by path in canonical order, the paper's
fold, so the error and its message are the ones that fold raises first.

Policy files are line-oriented ('#' starts a comment):

    zone <name> transitive|non-transitive
    security <src> -> <dst> : <services>
    qos <src> -> <dst> : <services> min <N|N.N|N/N>MB/s
    measure <src> -> <dst> : collect <services>

<services> is "none" or a comma-separated list of <proto>/<port|lo-hi|any>;
digits are ASCII only.  value_to_text and value_from_text, here alone,
print and parse the value after the colon, for policy and assignments
files alike; rule_line prints a whole rule line in this grammar.  At most
one rule per ordered zone pair per context.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import filterfalse, repeat
from operator import or_
from typing import Iterable, Mapping, Sequence, Union

from .algebra import DirectedDevice, PathSet, device_key, mask_indices, steps_key
from .errors import (
    ContextMismatch,
    EmptyPathSet,
    MissingDevicePolicy,
    PolicyParseError,
    PolicymapError,
    UnprintableValue,
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

    Ranges are closed intervals; construction sorts them and merges
    overlapping or adjacent ranges of the same protocol, so structural
    equality is semantic equality.  EMPTY_SERVICES (deny-all) and
    ANY_SERVICES bound the subset order.
    """

    ranges: tuple[tuple[str, int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ranges", _normalize(self.ranges))

    @classmethod
    def from_ranges(cls, ranges) -> "ServiceSet":
        return cls(tuple(ranges))

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
    # Fraction + float goes through float(), which overflows above ~1.8e308.
    if UNBOUNDED in (p.bandwidth, q.bandwidth):
        return QosValue(UNBOUNDED, _merge_qos_predicates(p, q))
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
    ``device_policies`` must cover every device appearing in it.  This is
    fold_classes over the paths' devices, numbered in device_key order,
    with one class per distinct value; a device with no value of ctx sends
    the paths to the path-by-path fold, in canonical order, which raises.
    """
    table = sorted({step for path in paths for step in path.steps}, key=device_key)
    masks: dict[PolicyValue, int] = {}
    for k, dev in enumerate(table):
        value = device_policies.get(dev)
        if _VALUE_CONTEXT.get(type(value)) is not ctx:
            steps = sorted((path.steps for path in paths), key=steps_key)
            return _path_by_path(ctx, device_policies, steps)
        masks[value] = masks.get(value, 0) | 1 << k
    number = {dev: k for k, dev in enumerate(table)}
    rows = [tuple(map(number.__getitem__, path.steps)) for path in paths]
    return fold_classes(ctx, list(masks.items()), rows, table)


def fold_classes(
    ctx: PolicyContext,
    classes: Sequence[tuple[PolicyValue, int]],
    paths: Sequence[tuple[int, ...]],
    table: Sequence[DirectedDevice],
) -> PolicyValue:
    """The end-to-end value over paths, in any order, given as tuples of
    indices into table, where each index takes the value of ctx whose mask
    in classes, (value, mask) pairs, has its bit; the masks are disjoint
    and cover every step of paths, and two classes may hold equal values.

    The paths are grouped by the classes they reach, and each group is
    folded once with its number of paths (the module docstring says why
    this is exact).  Only the paths that reach an index outside the
    largest class are walked: every other nonempty path has that class
    alone.  On an error the paths are folded path by path in canonical
    order, and that fold's value or error is the result."""
    largest = max(range(len(classes)), key=lambda c: classes[c][1].bit_count(), default=0)
    bit_of: dict[int, int] = {}
    for c, (_, mask) in enumerate(classes):
        if c != largest:
            bit_of.update(dict.fromkeys(mask_indices(mask), 1 << c))
    touching = list(filterfalse(bit_of.keys().isdisjoint, paths))
    keys = Counter(reduce(or_, map(bit_of.get, path, repeat(1 << largest))) for path in touching)
    empty = paths.count(())
    keys[1 << largest] += len(paths) - len(touching) - empty
    keys[0] += empty
    derived = None
    try:
        for key, count in keys.items():
            if not count:
                continue
            values = [value for c, (value, _) in enumerate(classes) if key >> c & 1]
            value = serial_identity(ctx) if not values else reduce(
                lambda p, q: compose_serial(ctx, p, q), values
            )
            if count > 1 and ctx is PolicyContext.QOS:
                value = QosValue(value.bandwidth * count, value.service)
            derived = value if derived is None else compose_parallel(ctx, derived, value)
        if derived is not None:
            return derived
    except PolicymapError:
        pass
    device_policies = {table[k]: value for value, mask in classes for k in mask_indices(mask)}
    steps = sorted((tuple(map(table.__getitem__, path)) for path in paths), key=steps_key)
    return _path_by_path(ctx, device_policies, steps)


def _path_by_path(
    ctx: PolicyContext, device_policies: Mapping, paths: Iterable[Sequence[DirectedDevice]]
) -> PolicyValue:
    """The paper's fold, fold_classes' reference: the parallel composition
    over paths, in the given order, of the serial composition along each.
    A path's devices are looked up before it is composed."""
    derived = None
    for steps in paths:
        values = []
        for step in steps:
            try:
                values.append(device_policies[step])
            except KeyError:
                raise MissingDevicePolicy(f"no policy value for device {step}") from None
        value = serial_identity(ctx) if not values else reduce(
            lambda p, q: compose_serial(ctx, p, q), values
        )
        derived = value if derived is None else compose_parallel(ctx, derived, value)
    if derived is None:
        raise EmptyPathSet("cannot derive a policy over an empty path set")
    return derived


@dataclass(frozen=True)
class PolicyRule:
    """An intended end-to-end policy between two named zones.

    Its structural hash and its context are computed once, at construction:
    sets of assignments hash their rules, a value's hash walks its
    ServiceSet or Fraction, and sort keys and documents read the context.
    """

    src: str
    dst: str
    value: PolicyValue

    def __post_init__(self):
        if self.src == self.dst:
            raise ValueError(f"rule with identical endpoints {self.src!r}")
        # Not fields, so ==, repr and fields() stay structural.
        object.__setattr__(self, "_hash", hash((self.src, self.dst, self.value)))
        object.__setattr__(self, "context", context_of(self.value))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild from the fields: a string hash differs between processes,
        # so a pickled _hash would be stale.
        return (PolicyRule, (self.src, self.dst, self.value))


@dataclass(frozen=True)
class PolicyDocument:
    transitivity: dict[str, bool]
    rules: tuple[PolicyRule, ...]

    def rules_for(self, ctx: PolicyContext) -> list[PolicyRule]:
        return [rule for rule in self.rules if rule.context is ctx]


_ZONE_RE = re.compile(r"^zone\s+(\S+)\s+(transitive|non-transitive)$")
_RULE_RE = re.compile(r"^(security|qos|measure)\s+(\S+)\s*->\s*(\S+)\s*:\s*(.+)$")
_RULE_CONTEXT = {
    "security": PolicyContext.SECURITY,
    "qos": PolicyContext.QOS,
    "measure": PolicyContext.MEASUREMENT,
}

# The value grammar, the inverse of value_to_text.  Digits are [0-9]: int()
# and \d would also take "2_2", "+22" and non-ASCII digits.
_PORTS_RE = re.compile(r"([0-9]+)(?:-([0-9]+))?")
_QOS_VALUE_RE = re.compile(r"^(.+?)\s+min\s+(\S+?)\s*MB/s$")
# The forms bandwidth_text prints; anything else (an exponent above all, or
# a zero denominator) is rejected before Fraction sees it.
_BANDWIDTH_RE = re.compile(r"[0-9]+(?:\.[0-9]+|/0*[1-9][0-9]*)?")


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
    elif match := _PORTS_RE.fullmatch(ports):
        lo, hi = int(match[1]), int(match[2] or match[1])
    else:
        raise ValueError(f"bad port range {ports!r}")
    if not (PORT_MIN <= lo <= hi <= PORT_MAX):
        raise ValueError(f"bad port range {ports!r}")
    return [(p, lo, hi) for p in protos]


def parse_services(text: str) -> ServiceSet:
    """A comma-separated list of service tokens, or "none" for the empty set."""
    if text == "none":
        return EMPTY_SERVICES
    ranges = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError("empty service in list")
        ranges.extend(parse_service_token(token))
    return ServiceSet.from_ranges(ranges)


def bandwidth_text(value: Fraction) -> str:
    """Exact decimal form when one exists (up to six places), else p/q.

    UnprintableValue past the int-to-str digit limit, which qos sums reach.
    """
    try:
        if value.denominator == 1:
            return str(value.numerator)
        for places in range(1, 7):
            scaled = value * 10**places
            if scaled.denominator == 1:
                digits = str(scaled.numerator).rjust(places + 1, "0")
                return digits[:-places] + "." + digits[-places:]
        return f"{value.numerator}/{value.denominator}"
    except ValueError as exc:
        raise UnprintableValue(
            f"bandwidth of a {value.numerator.bit_length()}-bit numerator and a "
            f"{value.denominator.bit_length()}-bit denominator has too many digits to print"
        ) from exc


def value_to_text(value: PolicyValue) -> str:
    if isinstance(value, (SecurityValue, MeasurementValue)):
        return value.services.text()
    if isinstance(value, QosValue):
        if value.bandwidth == UNBOUNDED:
            raise ValueError("unbounded bandwidth is not serializable")
        # A predicate-less value only arises in derived/intended delta
        # reporting (the no-rule baseline); it is display-only.
        head = "" if value.service is None else f"{value.service.text()} "
        return f"{head}min {bandwidth_text(value.bandwidth)}MB/s"
    raise ValueError(f"not a policy value: {value!r}")


def value_from_text(context: PolicyContext, text: str) -> PolicyValue:
    """Parse what value_to_text prints; ValueError on anything else."""
    text = text.strip()
    if context is PolicyContext.QOS:
        match = _QOS_VALUE_RE.match(text)
        if not match:
            raise ValueError(f"bad qos value {text!r}")
        services, amount = match.groups()
        if not _BANDWIDTH_RE.fullmatch(amount):
            raise ValueError(f"bad bandwidth {amount!r}")
        return QosValue(Fraction(amount), parse_services(services))
    services = parse_services(text)
    if context is PolicyContext.SECURITY:
        return SecurityValue(services)
    return MeasurementValue(services)


_RULE_KEYWORD = {ctx: keyword for keyword, ctx in _RULE_CONTEXT.items()}


def rule_line(context: PolicyContext, src: str, dst: str, value_text: str) -> str:
    """The policy-file line of a rule whose value value_to_text printed;
    parse_policy reads it back."""
    if context is PolicyContext.MEASUREMENT:
        value_text = f"collect {value_text}"
    return f"{_RULE_KEYWORD[context]} {src} -> {dst} : {value_text}"


def parse_policy(text: str) -> PolicyDocument:
    """Parse a policy file; PolicyParseError carries the offending line."""
    transitivity: dict[str, bool] = {}
    rules: list[PolicyRule] = []
    seen: set[tuple[PolicyContext, str, str]] = set()
    values: dict[tuple[str, str], PolicyValue] = {}  # a policy repeats few value texts

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
            match = _RULE_RE.match(line)
            if not match:
                raise PolicyParseError(line_no, f"unrecognized line {line!r}")
            keyword, src, dst, value_text = match.groups()
            if keyword == "measure":
                collect, _, value_text = value_text.partition(" ")
                if collect != "collect":
                    raise PolicyParseError(line_no, "measure value must start with 'collect '")
            if (keyword, value_text) not in values:
                values[keyword, value_text] = value_from_text(_RULE_CONTEXT[keyword], value_text)
            value = values[keyword, value_text]
            if src == dst:
                raise PolicyParseError(line_no, f"rule endpoints are both {src!r}")
            rule = PolicyRule(src, dst, value)
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
