"""Reference outputs for map, verify and whatif, derived without the mapper.

Paths come from ``brute_force_paths`` (the package's depth-first oracle)
run on a model this module builds straight from the generator's
``Network``.  Placement and audit rules are restated here from the README:
a rule goes inbound on the ingress interface of every directed device on
every path of its zone pair, and an existing assignment is classified by
the occurrences of its device on those paths.  The policy each zone pair
implements is restated too, from the README's composition table: the
parallel combination over the pair's paths of the serial combination of
the values assigned along each path.  Nothing here calls
``policymap.mapper``, ``policymap.policy``, ``policymap.documents`` or the
closure under test.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from policymap.algebra import DirectedDevice, PhysicalDevice
from policymap.closure import brute_force_paths
from policymap.topology import Zone, ZoneConduitModel

from workloads import Network, Workload

FIELDS = ("context", "src", "dst", "device", "interface", "direction", "value")
DELTA_FIELDS = ("context", "src", "dst", "intended", "derived")
FAULT_CLASSES = ("incorrect_firewall", "incorrect_interface", "incorrect_direction")
FAULTS_PER_CLASS = 2
# Names no generated firewall has, for faults a network offers no real
# candidate for (every firewall on a pair's paths, every port in use).
UNKNOWN_DEVICE = "fw-retired"
UNKNOWN_INTERFACE = "mgmt0"


def oracle_model(network: Network) -> ZoneConduitModel:
    """The zone-conduit model of ``network``, built without parsing any file."""
    names = sorted(z for z, _ in network.zones)
    transitive = dict(network.zones)
    index = {name: k for k, name in enumerate(names)}
    devices = {}
    conduits: dict[tuple[int, int], set] = {}
    for fw, ports in network.firewalls:
        device = PhysicalDevice(fw, tuple(iface for iface, _ in ports))
        devices[fw] = device
        for in_iface, a in ports:
            for out_iface, b in ports:
                if a != b:
                    i, j = index[a], index[b]
                    conduits.setdefault((i, j), set()).add(
                        DirectedDevice(device, i, j, in_iface, out_iface)
                    )
    return ZoneConduitModel(
        zones=tuple(Zone(index[n], n, transitive[n]) for n in names),
        devices=devices,
        conduits={pair: frozenset(devs) for pair, devs in conduits.items()},
    )


@dataclass(frozen=True)
class Reference:
    """Oracle view of one network under one policy."""

    paths: int  # elementary paths between distinct zones
    cells: dict  # (src, dst) -> tuple of paths, each a tuple of DirectedDevice
    occurrences: dict  # (src, dst) -> frozenset[DirectedDevice] on its paths
    entries: tuple  # sorted FIELDS tuples of the expected map
    unreachable: frozenset  # (context, src, dst) of rules with no path


def reference(network: Network, rules) -> Reference:
    model = oracle_model(network)
    index = {zone.name: zone.index for zone in model.zones}
    closure = brute_force_paths(model)
    cells = {}
    occurrences = {}
    entries = set()
    unreachable = set()
    for rule in rules:
        pair = (rule.src, rule.dst)
        if pair not in occurrences:
            paths = closure.cell(index[rule.src], index[rule.dst])
            cells[pair] = tuple(path.steps for path in paths)
            occurrences[pair] = frozenset(step for steps in cells[pair] for step in steps)
        if not occurrences[pair]:
            unreachable.add((rule.context, rule.src, rule.dst))
        for dev in occurrences[pair]:
            entries.add(
                (rule.context, rule.src, rule.dst, dev.device_id,
                 dev.ingress_interface, "inbound", rule.value)
            )
    paths = sum(len(closure.cell(i, j)) for i in range(model.n) for j in range(model.n) if i != j)
    return Reference(paths, cells, occurrences, tuple(sorted(entries)), frozenset(unreachable))


# Policy values.  Security and measurement values are service sets, kept
# as normalized (protocol, low port, high port) ranges; a QoS value is a
# (bandwidth in MB/s, service set or None) pair.  None is the predicate of
# the no-rule default, which matches any other predicate.
PROTOCOLS = ("icmp", "tcp", "udp")
ANY_PORT = (0, 65535)
ANY_SERVICES = tuple((proto, *ANY_PORT) for proto in PROTOCOLS)
NO_RULE = {"security": (), "measurement": (), "qos": (Fraction(0), None)}


def _normal(ranges) -> tuple:
    """Ranges sorted by protocol and port, overlapping or adjacent ones merged."""
    out = []
    for proto in PROTOCOLS:
        merged: list[list[int]] = []
        for lo, hi in sorted((lo, hi) for p, lo, hi in ranges if p == proto):
            if merged and lo <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        out.extend((proto, lo, hi) for lo, hi in merged)
    return tuple(out)


def _union(a: tuple, b: tuple) -> tuple:
    return _normal(a + b)


def _intersection(a: tuple, b: tuple) -> tuple:
    return _normal([
        (p, max(lo, lo2), min(hi, hi2))
        for p, lo, hi in a for p2, lo2, hi2 in b
        if p == p2 and max(lo, lo2) <= min(hi, hi2)
    ])


def _services(text: str) -> tuple:
    if text == "none":
        return ()
    ranges = []
    for token in text.split(","):
        proto, port = token.strip().split("/")
        if port == "any":
            lo, hi = ANY_PORT
        else:
            lo, _, hi = port.partition("-")
            lo, hi = int(lo), int(hi or lo)
        ranges.append((proto, lo, hi))
    return _normal(ranges)


def _services_text(ranges: tuple) -> str:
    if ranges == ANY_SERVICES:
        return "any/any"
    if not ranges:
        return "none"
    return ", ".join(
        f"{p}/any" if (lo, hi) == ANY_PORT else f"{p}/{lo}" if lo == hi else f"{p}/{lo}-{hi}"
        for p, lo, hi in ranges
    )


@lru_cache(maxsize=None)
def value_of(context: str, text: str):
    """A rule value's text, as the workloads write it, as a policy value."""
    if context != "qos":
        return _services(text)
    service, amount = re.fullmatch(r"(\S+) min (\S+)MB/s", text).groups()
    return (Fraction(amount), _services(service))


def _bandwidth_text(value: Fraction) -> str:
    """Exact decimal form with up to six places, else p/q."""
    for places in range(7):
        scaled = value * 10**places
        if scaled.denominator == 1:
            digits = str(scaled.numerator).rjust(places + 1, "0")
            return digits[:-places] + "." + digits[-places:] if places else digits
    return f"{value.numerator}/{value.denominator}"


def value_text(context: str, value) -> str:
    if context != "qos":
        return _services_text(value)
    bandwidth, service = value
    head = "" if service is None else f"{_services_text(service)} "
    return f"{head}min {_bandwidth_text(bandwidth)}MB/s"


def _compose(context: str, serial: bool, p, q):
    """Two values in series on one path (``serial``) or on alternative paths.

    Security: intersection in series, union in parallel.  Measurement: the
    reverse.  QoS: minimum bandwidth in series, sum in parallel, over one
    service predicate.
    """
    if context == "qos":
        (a, s), (b, t) = p, q
        if s is not None and t is not None and s != t:
            raise ValueError(f"qos values over different predicates: {s} and {t}")
        return (min(a, b) if serial else a + b, t if s is None else s)
    if serial == (context == "security"):
        return _intersection(p, q)
    return _union(p, q)


def derive(context: str, paths, values: dict):
    """End-to-end value of ``paths`` given each directed device's value."""
    def along(path):
        assert path, "a path between distinct zones crosses a device"
        return reduce(lambda p, q: _compose(context, True, p, q), (values[step] for step in path))

    return reduce(lambda p, q: _compose(context, False, p, q), map(along, paths))


def _policy_deltas(ref: Reference, rules, entries) -> tuple[tuple, tuple]:
    """DELTA_FIELDS tuples of the pairs verify must report for ``entries``.

    A directed device takes the parallel combination of the values assigned
    where its traffic crosses it (its ingress inbound or egress outbound),
    or the no-rule default (deny, collect nothing, no guarantee).  A pair
    whose derived value differs from its rule is a policy delta; for QoS
    only a bandwidth below the rule's is a delta, and one above it is
    over-provisioned.  Unreachable pairs are skipped.  Returns the policy
    deltas and the over-provisioned pairs.
    """
    intended = {(r.context, r.src, r.dst): r.value for r in rules}
    placed: dict[tuple, list] = {}
    for context, src, dst, device, interface, direction, value in entries:
        placed.setdefault((context, src, dst), []).append((device, interface, direction, value))
    deltas, overprovisioned = [], []
    for key in sorted(set(intended) | set(placed)):
        context, src, dst = key
        paths = ref.cells[(src, dst)]
        if not paths:
            continue
        values = {}
        for dev in ref.occurrences[(src, dst)]:
            crossing = {(dev.ingress_interface, "inbound"), (dev.egress_interface, "outbound")}
            realized = sorted({
                value for device, interface, direction, value in placed.get(key, ())
                if device == dev.device_id and (interface, direction) in crossing
            })
            values[dev] = reduce(
                lambda p, q: _compose(context, False, p, q),
                (value_of(context, v) for v in realized),
            ) if realized else NO_RULE[context]
        derived = derive(context, paths, values)
        wanted = value_of(context, intended[key]) if key in intended else NO_RULE[context]
        row = (*key, value_text(context, wanted), value_text(context, derived))
        if context != "qos":
            if derived != wanted:
                deltas.append(row)
        elif derived[0] < wanted[0]:
            deltas.append(row)
        elif derived[0] > wanted[0]:
            overprovisioned.append(row)
    return tuple(deltas), tuple(overprovisioned)


def classify(occurrences, device: str, interface: str, direction: str) -> str:
    """Audit class of one assignment, from the occurrences on its pair's paths."""
    mine = [dev for dev in occurrences if dev.device_id == device]
    if not mine:
        return "incorrect_firewall"
    if interface not in {i for dev in mine for i in (dev.ingress_interface, dev.egress_interface)}:
        return "incorrect_interface"
    realizations = {(dev.ingress_interface, "inbound") for dev in mine} | {
        (dev.egress_interface, "outbound") for dev in mine
    }
    if (interface, direction) not in realizations:
        return "incorrect_direction"
    return "correct"


def _faulted(entry, fault: str, occurrences, ports: dict, rng: random.Random):
    """``entry`` moved so that it falls in class ``fault``, or None if it cannot."""
    context, src, dst, device, interface, direction, value = entry
    if fault == "incorrect_firewall":
        used = {dev.device_id for dev in occurrences}
        absent = sorted(fw for fw in ports if fw not in used)
        if absent:
            device = rng.choice(absent)
            interface = rng.choice(ports[device])
        else:
            device = UNKNOWN_DEVICE
    elif fault == "incorrect_interface":
        used = {i for dev in occurrences if dev.device_id == device
                for i in (dev.ingress_interface, dev.egress_interface)}
        spare = [i for i in ports[device] if i not in used]
        interface = rng.choice(spare) if spare else UNKNOWN_INTERFACE
    else:
        direction = "outbound"
        if classify(occurrences, device, interface, direction) != fault:
            return None
    return (context, src, dst, device, interface, direction, value)


def inject_faults(ref: Reference, network: Network, rng: random.Random):
    """The reference with FAULTS_PER_CLASS entries of each class moved.

    Faults go first on measurement entries whose device alone is a path of
    their pair: that path then collects nothing, so verify must also report
    a policy delta for the pair.  Returns the faulted entries and the
    expected non-correct findings, as FIELDS tuples followed by their class.
    """
    ports = {fw: [iface for iface, _ in p] for fw, p in network.firewalls}
    entries = list(ref.entries)
    expected = set()

    def alone_on_a_path(entry) -> bool:
        context, src, dst, device, interface = entry[:5]
        return context == "measurement" and any(
            len(path) == 1 and (path[0].device_id, path[0].ingress_interface) == (device, interface)
            for path in ref.cells[(src, dst)]
        )

    order = sorted(rng.sample(range(len(entries)), len(entries)),
                   key=lambda k: not alone_on_a_path(entries[k]))
    for fault in FAULT_CLASSES:
        placed = 0
        for k in order:
            if placed == FAULTS_PER_CLASS:
                break
            entry = entries[k]
            occurrences = ref.occurrences[entry[1:3]]
            if classify(occurrences, *entry[3:6]) != "correct":
                continue  # already moved
            moved = _faulted(entry, fault, occurrences, ports, rng)
            if moved is None:
                continue
            if classify(occurrences, *moved[3:6]) != fault:
                raise AssertionError(f"{moved} was meant to be {fault}")
            entries[k] = moved
            expected.add(moved + (fault,))
            placed += 1
        if placed < FAULTS_PER_CLASS:
            raise ValueError(f"workload admits fewer than {FAULTS_PER_CLASS} {fault} faults")
    return tuple(sorted(entries)), frozenset(expected)


def assignments_document(entries) -> str:
    """An assignments file in the README's format: flat list plus per-device tree."""
    flat = [dict(zip(FIELDS, entry)) for entry in sorted(entries)]
    tree: dict = {}
    for e in flat:
        lines = tree.setdefault(e["device"], {}).setdefault(e["interface"], {}).setdefault(
            e["direction"], []
        )
        line = f"{e['context']} {e['src']} -> {e['dst']} : {e['value']}"
        if line not in lines:
            lines.append(line)
    for device in tree.values():
        for interface in device.values():
            for lines in interface.values():
                lines.sort()
    return json.dumps({"assignments": flat, "by_device": tree}, indent=2, sort_keys=True) + "\n"


def _tuples(items, fields=FIELDS):
    return sorted(tuple(item[f] for f in fields) for item in items)


@dataclass(frozen=True)
class Audit:
    """What verify must print for one assignments file."""

    entries: tuple  # the file's FIELDS tuples, sorted
    findings: frozenset  # the non-correct ones, as FIELDS tuples plus class
    deltas: tuple  # DELTA_FIELDS tuples, sorted
    overprovisioned: tuple  # DELTA_FIELDS tuples, sorted


def audit(ref: Reference, rules, entries, findings=frozenset()) -> Audit:
    return Audit(tuple(sorted(entries)), frozenset(findings), *_policy_deltas(ref, rules, entries))


@dataclass(frozen=True)
class Expected:
    """What each command must print for one workload."""

    paths: int
    map_entries: tuple
    faulted: Audit  # the map with seeded faults
    clean: Audit  # the map itself
    removed: tuple
    added: tuple
    new_unreachable: tuple
    resolved_unreachable: tuple


def expected_outputs(workload: Workload, rng: random.Random) -> Expected:
    base = reference(workload.network, workload.rules)
    changed = reference(workload.changed, workload.rules)
    faulted, findings = inject_faults(base, workload.network, rng)
    before, after = set(base.entries), set(changed.entries)
    return Expected(
        paths=base.paths,
        map_entries=base.entries,
        faulted=audit(base, workload.rules, faulted, findings),
        clean=audit(base, workload.rules, base.entries),
        removed=tuple(sorted(before - after)),
        added=tuple(sorted(after - before)),
        new_unreachable=tuple(sorted(changed.unreachable - base.unreachable)),
        resolved_unreachable=tuple(sorted(base.unreachable - changed.unreachable)),
    )


def check_map(document: dict, expected: Expected) -> bool:
    return _tuples(document["assignments"]) == list(expected.map_entries)


def check_verify(document: dict, expected: Audit) -> bool:
    """Every entry audited once, exactly the expected findings not correct,
    and exactly the expected policy deltas and over-provisioned pairs."""
    wrong = [f for f in document["findings"] if f["classification"] != "correct"]
    counts = {c: sum(1 for f in expected.findings if f[-1] == c) for c in FAULT_CLASSES}
    counts["correct"] = len(expected.entries) - len(expected.findings)
    return (
        _tuples(document["findings"]) == list(expected.entries)
        and set(_tuples(wrong, FIELDS + ("classification",))) == set(expected.findings)
        and document["counts"] == counts
        and _tuples(document["policy_deltas"], DELTA_FIELDS) == list(expected.deltas)
        and _tuples(document["overprovisioned"], DELTA_FIELDS) == list(expected.overprovisioned)
        and document["clean"] == (not expected.findings and not expected.deltas)
    )


def check_whatif(document: dict, expected: Expected) -> bool:
    unreachable = ("context", "src", "dst")
    return (
        _tuples(document["removed"]) == list(expected.removed)
        and _tuples(document["added"]) == list(expected.added)
        and _tuples(document["new_unreachable"], unreachable) == list(expected.new_unreachable)
        and _tuples(document["resolved_unreachable"], unreachable)
        == list(expected.resolved_unreachable)
    )
