"""Seeded random generators for models, rules, and perturbations.

Shared by the property tests and the acceptance suite.  Everything is
driven by an explicit random.Random so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction

from policymap.algebra import EPSILON, DevicePath, DirectedDevice, PhysicalDevice
from policymap.closure import brute_force_paths
from policymap.policy import (
    MeasurementValue,
    PolicyContext,
    PolicyRule,
    QosValue,
    SecurityValue,
    ServiceSet,
)
from policymap.topology import (
    NetworkTopology,
    TopologyLink,
    TopologyNode,
    ZoneConduitModel,
    build_model,
)


def random_topology(rng: random.Random, max_zones=7, max_firewalls=12):
    n = rng.randint(2, max_zones)
    zone_names = [f"Z{idx:02d}" for idx in range(n)]
    nodes = [
        TopologyNode(f"z{idx}", "zone", name) for idx, name in enumerate(zone_names)
    ]
    links = []
    for k in range(rng.randint(1, max_firewalls)):
        name = f"fw{k:02d}"
        node_id = f"n{k:02d}"
        nodes.append(TopologyNode(node_id, "firewall", name))
        arity = 3 if n >= 3 and rng.random() < 0.2 else 2
        for slot, zone_idx in enumerate(rng.sample(range(n), arity)):
            links.append(TopologyLink(node_id, f"e{slot}", f"z{zone_idx}"))
    return NetworkTopology(tuple(nodes), tuple(links)), zone_names


def random_model(rng: random.Random, max_zones=7, max_firewalls=12) -> ZoneConduitModel:
    topology, zone_names = random_topology(rng, max_zones, max_firewalls)
    transitivity = {name: rng.random() < 0.6 for name in zone_names}
    return build_model(topology, transitivity)


def random_service_set(rng: random.Random, max_predicates=2) -> ServiceSet:
    ranges = []
    for _ in range(rng.randint(1, max_predicates)):
        proto = rng.choice(["tcp", "udp", "icmp"])
        lo = rng.randint(0, 65500)
        hi = lo if rng.random() < 0.7 else rng.randint(lo, min(lo + 200, 65535))
        ranges.append((proto, lo, hi))
    return ServiceSet.from_ranges(ranges)


def random_value(rng: random.Random, ctx: PolicyContext):
    if ctx is PolicyContext.SECURITY:
        return SecurityValue(random_service_set(rng))
    if ctx is PolicyContext.MEASUREMENT:
        return MeasurementValue(random_service_set(rng, max_predicates=1))
    return QosValue(Fraction(rng.randint(1, 1000)), random_service_set(rng, 1))


def pool_paths() -> list[DevicePath]:
    """Every valid path (up to 3 steps) over a fixed five-zone device pool."""
    specs = [
        ("P", 0, 1), ("Q", 0, 1), ("R", 1, 2), ("S", 2, 3),
        ("T", 0, 2), ("U", 1, 3), ("V", 3, 4), ("W", 0, 4),
    ]
    devices = []
    for name, a, b in specs:
        phys = PhysicalDevice(name, ("e0", "e1"))
        devices.append(DirectedDevice(phys, a, b, "e0", "e1"))
        devices.append(DirectedDevice(phys, b, a, "e1", "e0"))
    paths = [EPSILON]
    frontier = [DevicePath((d,)) for d in devices]
    paths.extend(frontier)
    for _ in range(2):
        grown = []
        for p in frontier:
            for d in devices:
                if (
                    d.from_zone == p.steps[-1].to_zone
                    and d.to_zone not in p.zone_sequence()
                    and d.device_id not in p.device_ids()
                ):
                    grown.append(DevicePath(p.steps + (d,)))
        paths.extend(grown)
        frontier = grown
    return paths


def random_rules(
    rng: random.Random, model: ZoneConduitModel, ctx: PolicyContext, max_rules=4
) -> list[PolicyRule]:
    """Rules between reachable pairs only, so mapping them never fails.

    Reachability comes from the brute-force enumerator, not the closure
    under test.
    """
    oracle = brute_force_paths(model)
    names = [zone.name for zone in model.zones]
    reachable = [
        (i, j)
        for i in range(model.n)
        for j in range(model.n)
        if i != j and oracle.cell(i, j)
    ]
    rng.shuffle(reachable)
    return [
        PolicyRule(names[i], names[j], random_value(rng, ctx))
        for i, j in reachable[: rng.randint(1, max_rules)]
    ]
