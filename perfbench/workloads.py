"""Seeded workload generators: the networks, policies and what-if changes.

Each generator builds one fixed network shape and lets the seed choose
everything that does not change the amount of work: which name plays which
structural role, the order of nodes, edges and policy lines in the files,
the rule values, and (in ``oracle``) which assignments get faults.  Runs
with different seeds therefore do the same work on different inputs, which
keeps the spread between seeds small enough to detect a regression.

The files handed to policymap are written from a ``Network`` here.  The
oracle builds its model straight from the same ``Network`` without
parsing them, so a defect in GraphML or policy ingestion shows as a wrong
output instead of being repeated by the reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

SECURITY_VALUES = ("tcp/22, tcp/443", "tcp/80", "udp/53", "tcp/1024-2047")
QOS_VALUES = ("tcp/80 min 50MB/s", "udp/5004 min 12.5MB/s", "tcp/443 min 200MB/s")
MEASUREMENT_VALUES = ("udp/any", "tcp/443", "icmp/any")
VALUES = {"security": SECURITY_VALUES, "qos": QOS_VALUES, "measurement": MEASUREMENT_VALUES}
CONTEXTS = ("security", "qos", "measurement")

# Ring plus ten chords over ten zones (duplicates are parallel firewalls):
# 6950 elementary paths when every zone is transitive.
MESH10_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 0),
    (1, 0), (4, 3), (3, 2), (1, 8), (1, 6), (0, 9), (1, 3), (3, 8), (9, 0), (8, 3),
)


@dataclass(frozen=True)
class Rule:
    context: str
    src: str
    dst: str
    value: str  # canonical text, as policymap prints it

    def policy_line(self) -> str:
        if self.context == "measurement":
            return f"measure {self.src} -> {self.dst} : collect {self.value}"
        return f"{self.context} {self.src} -> {self.dst} : {self.value}"


@dataclass(frozen=True)
class Network:
    zones: tuple[tuple[str, bool], ...]  # (name, transitive)
    firewalls: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]  # (name, ((interface, zone), ...))

    def set_transitive(self, zone: str, transitive: bool) -> "Network":
        return replace(
            self, zones=tuple((z, transitive if z == zone else t) for z, t in self.zones)
        )

    def drop_firewall(self, name: str) -> "Network":
        return replace(self, firewalls=tuple(f for f in self.firewalls if f[0] != name))


@dataclass(frozen=True)
class Workload:
    name: str
    network: Network
    rules: tuple[Rule, ...]
    whatif_args: tuple[str, ...]
    changed: Network  # the network the what-if command evaluates
    graphml: str  # the topology file
    policy: str  # the policy file


def _workload(name, network, rules, whatif_args, changed, rng) -> Workload:
    return Workload(
        name, network, rules, tuple(whatif_args), changed,
        graphml_text(network, rng), policy_text(network, rules, rng),
    )


def graphml_text(network: Network, rng: random.Random) -> str:
    """GraphML with nodes and edges in a seeded order and opaque node ids."""
    names = [z for z, _ in network.zones] + [f for f, _ in network.firewalls]
    ids = {name: f"n{k}" for k, name in enumerate(rng.sample(names, len(names)))}
    nodes = [
        f'<node id="{ids[z]}"><data key="k">zone</data><data key="n">{z}</data></node>'
        for z, _ in network.zones
    ] + [
        f'<node id="{ids[f]}"><data key="k">firewall</data><data key="n">{f}</data></node>'
        for f, _ in network.firewalls
    ]
    edges = [
        f'<edge source="{ids[f]}" target="{ids[z]}"><data key="i">{iface}</data></edge>'
        for f, ports in network.firewalls
        for iface, z in ports
    ]
    rng.shuffle(nodes)
    rng.shuffle(edges)
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '<key id="k" for="node" attr.name="kind" attr.type="string"/>\n'
        '<key id="n" for="node" attr.name="name" attr.type="string"/>\n'
        '<key id="i" for="edge" attr.name="interface" attr.type="string"/>\n'
        '<graph id="g" edgedefault="undirected">\n'
        + "\n".join(nodes + edges)
        + "\n</graph>\n</graphml>\n"
    )


def policy_text(network: Network, rules, rng: random.Random) -> str:
    zone_lines = [
        f"zone {z} {'transitive' if t else 'non-transitive'}" for z, t in network.zones
    ]
    rule_lines = [rule.policy_line() for rule in rules]
    rng.shuffle(zone_lines)
    rng.shuffle(rule_lines)
    return "\n".join(["# generated policy", *zone_lines, "", *rule_lines]) + "\n"


def _names(prefix: str, count: int, rng: random.Random) -> list[str]:
    """``count`` names in a seeded order: role k gets the k-th name."""
    names = [f"{prefix}{k:02d}" for k in range(count)]
    rng.shuffle(names)
    return names


def _two_port(name: str, a: str, b: str, rng: random.Random):
    ports = ["e0", "e1"]
    rng.shuffle(ports)
    return (name, ((ports[0], a), (ports[1], b)))


def hub21(rng: random.Random) -> Workload:
    """Two transit hubs, nineteen closed leaves, one firewall per conduit."""
    leaves = _names("L", 19, rng)
    hubs = ["H1", "H2"]
    pairs = [("H1", "H2")] + [(h, leaf) for h in hubs for leaf in leaves]
    pairs += [(leaves[0], leaves[1]), (leaves[2], leaves[3]), (leaves[4], leaves[5])]
    fw_names = _names("fw", len(pairs), rng)
    firewalls = tuple(_two_port(fw, a, b, rng) for fw, (a, b) in zip(fw_names, pairs))
    zones = tuple((z, z in hubs) for z in hubs + sorted(leaves))
    network = Network(zones, firewalls)

    linked = [(a, b) for a, b in pairs[-3:]] + [(b, a) for a, b in pairs[-3:]]
    others = [(a, b) for a in leaves for b in leaves if a != b and (a, b) not in linked]
    rule_pairs = linked + rng.sample(others, 54)
    rules = tuple(
        Rule(ctx, a, b, rng.choice(VALUES[ctx])) for a, b in rule_pairs for ctx in CONTEXTS
    )
    return _workload(
        "hub21", network, rules, ("--set-non-transitive", "H2"),
        network.set_transitive("H2", False), rng,
    )


def mesh(rng: random.Random, zones: int, edges) -> Network:
    """All-transitive zones joined by one two-port firewall per edge (by role)."""
    names = _names("Z", zones, rng)
    fw_names = _names("fw", len(edges), rng)
    firewalls = tuple(
        _two_port(fw, names[a], names[b], rng) for fw, (a, b) in zip(fw_names, edges)
    )
    return Network(tuple((z, True) for z in sorted(names)), firewalls)


def mesh10(rng: random.Random) -> Workload:
    """Ten transitive zones, twenty two-port firewalls, rules on every pair."""
    network = mesh(rng, 10, MESH10_EDGES)
    zones = [z for z, _ in network.zones]
    ordered = [(a, b) for a in zones for b in zones if a != b]
    rng.shuffle(ordered)
    rules = tuple(
        Rule(CONTEXTS[k % 3], a, b, rng.choice(VALUES[CONTEXTS[k % 3]]))
        for k, (a, b) in enumerate(ordered)
    )
    dropped = network.firewalls[0][0]  # a ring firewall, so it lies on many paths
    return _workload(
        "mesh10", network, rules, ("--drop-device", dropped),
        network.drop_firewall(dropped), rng,
    )


def flat12(rng: random.Random) -> Workload:
    """Twelve closed segments, eight firewalls each with a port in every segment."""
    zones = _names("S", 12, rng)
    firewalls = []
    for fw in sorted(_names("fw", 8, rng)):
        ports = [f"p{k:02d}" for k in range(12)]
        rng.shuffle(ports)
        firewalls.append((fw, tuple(zip(ports, zones))))
    network = Network(tuple((z, False) for z in sorted(zones)), tuple(firewalls))

    rules = tuple(
        Rule(ctx, a, b, rng.choice(VALUES[ctx]))
        for a in zones
        for b in zones
        if a != b
        for ctx in CONTEXTS
    )
    opened = zones[0]
    return _workload(
        "flat12", network, rules, ("--set-transitive", opened),
        network.set_transitive(opened, True), rng,
    )


GENERATORS = {"hub21": hub21, "mesh10": mesh10, "flat12": flat12}


def generate(name: str, seed: int) -> Workload:
    return GENERATORS[name](random.Random(f"{name}:{seed}"))
