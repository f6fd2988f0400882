"""GraphML ingestion and zone-conduit model construction.

The topology input is a GraphML document whose nodes are either security
zones or firewalls (distinguished by a ``kind`` data key) and whose edges
each join one firewall interface to one zone (the ``interface`` data key
names the firewall-side interface; zones are logical and carry none).

From the parsed topology we build the zone-conduit model: an indexed zone
table, the physical device table, and for every ordered zone pair bridged
by at least one firewall the set of directed devices on that conduit.
A firewall attached to three or more zones is expanded into one directed
device per ordered pair of its attached zones, i.e. hyper-edges are
replaced by simple edges.

Zone traffic transitivity is a policy property, not a topology property,
so build_model takes it as an explicit argument and topology files stay
policy-free.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import IO, Collection, Union

from .algebra import DirectedDevice, PathMatrix, PhysicalDevice, device_key
from .errors import MalformedDocument, SchemaError, UnknownZone

ZONE_KIND = "zone"
FIREWALL_KIND = "firewall"

# Synthetic interface through which a firewall's own management zone is
# attached when firewall-zones are enabled.
FIREWALL_ZONE_INTERFACE = "self"
FIREWALL_ZONE_PREFIX = "fwz-"


@dataclass(frozen=True)
class TopologyNode:
    node_id: str
    kind: str
    name: str


@dataclass(frozen=True)
class TopologyLink:
    """One firewall interface attached to one zone (node ids)."""

    firewall: str
    interface: str
    zone: str


@dataclass(frozen=True)
class NetworkTopology:
    nodes: tuple[TopologyNode, ...]
    links: tuple[TopologyLink, ...]

    def zones(self) -> list[TopologyNode]:
        return [n for n in self.nodes if n.kind == ZONE_KIND]

    def firewalls(self) -> list[TopologyNode]:
        return [n for n in self.nodes if n.kind == FIREWALL_KIND]


def _local(tag: str) -> str:
    """Tag name with any XML namespace stripped."""
    return tag.rsplit("}", 1)[-1]


def parse_topology(source: Union[bytes, str, IO[bytes]]) -> NetworkTopology:
    """Parse a GraphML document into a typed topology.

    Node kind comes from the data key named ``kind`` (values ``zone`` or
    ``firewall``), display names from the optional ``name`` key, and link
    interfaces from the edge key ``interface``.  Key ids are resolved
    through the ``<key>`` declarations, so documents may number their keys
    however they like; unknown keys are ignored.
    """
    if hasattr(source, "read"):
        data = source.read()
    else:
        data = source
    try:
        root = ET.fromstring(data)
    # An encoding declaration the codecs cannot decode with raises
    # LookupError or ValueError (UnicodeError among them), not ParseError.
    except (ET.ParseError, LookupError, ValueError) as exc:
        raise MalformedDocument(f"not well-formed XML: {exc}") from exc
    if _local(root.tag) != "graphml":
        raise MalformedDocument(f"root element is <{_local(root.tag)}>, expected <graphml>")

    key_names: dict[str, str] = {}
    for key in root:
        if _local(key.tag) == "key":
            key_id = key.get("id")
            attr_name = key.get("attr.name")
            if key_id and attr_name:
                key_names[key_id] = attr_name

    graph = next((child for child in root if _local(child.tag) == "graph"), None)
    if graph is None:
        raise MalformedDocument("document contains no <graph> element")

    def data_of(element) -> dict[str, str]:
        values: dict[str, str] = {}
        for child in element:
            if _local(child.tag) != "data":
                continue
            name = key_names.get(child.get("key", ""))
            if name is not None:
                values[name] = (child.text or "").strip()
        return values

    nodes: list[TopologyNode] = []
    by_id: dict[str, TopologyNode] = {}
    for el in graph:
        if _local(el.tag) != "node":
            continue
        node_id = el.get("id")
        if not node_id:
            raise MalformedDocument("<node> without id attribute")
        if node_id in by_id:
            raise SchemaError(f"duplicate node id {node_id!r}")
        values = data_of(el)
        kind = values.get("kind")
        if kind is None:
            raise SchemaError(f"node {node_id!r} has no 'kind' data key")
        if kind not in (ZONE_KIND, FIREWALL_KIND):
            raise SchemaError(f"node {node_id!r} has unknown kind {kind!r}")
        node = TopologyNode(node_id, kind, values.get("name") or node_id)
        nodes.append(node)
        by_id[node_id] = node

    for kind in (ZONE_KIND, FIREWALL_KIND):
        names = [n.name for n in nodes if n.kind == kind]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate {kind} display names")

    links: list[TopologyLink] = []
    seen_iface: set[tuple[str, str]] = set()
    seen_pair: set[tuple[str, str]] = set()
    for el in graph:
        if _local(el.tag) != "edge":
            continue
        src, dst = el.get("source"), el.get("target")
        if not src or not dst:
            raise MalformedDocument("<edge> without source/target")
        try:
            a, b = by_id[src], by_id[dst]
        except KeyError as exc:
            raise SchemaError(f"edge references unknown node {exc.args[0]!r}") from exc
        kinds = {a.kind, b.kind}
        if kinds != {ZONE_KIND, FIREWALL_KIND}:
            raise SchemaError(
                f"edge {src!r}-{dst!r} joins {a.kind} to {b.kind}; "
                "links must join one firewall to one zone"
            )
        firewall, zone = (a, b) if a.kind == FIREWALL_KIND else (b, a)
        interface = data_of(el).get("interface")
        if not interface:
            raise SchemaError(f"edge {src!r}-{dst!r} has no 'interface' data key")
        if (firewall.node_id, interface) in seen_iface:
            raise SchemaError(
                f"interface {interface!r} of firewall {firewall.name!r} appears on two links"
            )
        if (firewall.node_id, zone.node_id) in seen_pair:
            raise SchemaError(
                f"firewall {firewall.name!r} has two links to zone {zone.name!r}"
            )
        seen_iface.add((firewall.node_id, interface))
        seen_pair.add((firewall.node_id, zone.node_id))
        links.append(TopologyLink(firewall.node_id, interface, zone.node_id))

    return NetworkTopology(tuple(nodes), tuple(links))


def load_topology(path) -> NetworkTopology:
    with open(path, "rb") as handle:
        return parse_topology(handle)


@dataclass(frozen=True)
class Zone:
    index: int
    name: str
    transitive: bool


@dataclass(frozen=True)
class ZoneConduitModel:
    """Zone table, device table, and directed conduits of a network.

    ``conduits`` maps each ordered zone pair bridged by a primary conduit
    to the nonempty set of directed devices on it.  Conduits always come
    in symmetric pairs: for every directed device the reversed orientation
    sits on the opposite pair.
    """

    zones: tuple[Zone, ...]
    devices: dict[str, PhysicalDevice]
    conduits: dict[tuple[int, int], frozenset[DirectedDevice]]
    _index_of: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index_of", {zone.name: zone.index for zone in self.zones})
        # (conduit pair, physical, from, to, ingress, egress) of every device filed.
        filed = {pair + dev._fields() for pair, devs in self.conduits.items() for dev in devs}
        for (i, j), devs in self.conduits.items():
            if not devs:
                raise ValueError(f"empty conduit ({i}, {j})")
            for dev in devs:
                if (dev.from_zone, dev.to_zone) != (i, j):
                    raise ValueError(f"device {dev.text()} filed under conduit ({i}, {j})")
                reverse = (j, i, dev.physical, j, i, dev.egress_interface, dev.ingress_interface)
                if reverse not in filed:
                    raise ValueError(f"conduit ({i}, {j}) lacks the reverse of {dev.text()}")

    @property
    def n(self) -> int:
        return len(self.zones)

    def zone_index(self, name: str) -> int:
        try:
            return self._index_of[name]
        except KeyError:
            raise UnknownZone(f"unknown zone {name!r}") from None


def check_transitivity(zone_names: Collection[str], transitivity: dict[str, bool]) -> None:
    """Raise UnknownZone for the first name in transitivity not in zone_names."""
    for name in transitivity:
        if name not in zone_names:
            raise UnknownZone(f"transitivity names unknown zone {name!r}")


def build_model(
    topology: NetworkTopology,
    transitivity: dict[str, bool],
    add_firewall_zones: bool = False,
) -> ZoneConduitModel:
    """Derive the zone-conduit model from a parsed topology.

    Zones absent from ``transitivity`` default to non-transitive; naming a
    zone the topology does not contain raises UnknownZone.  When
    ``add_firewall_zones`` is set, every firewall gains a dedicated
    non-transitive management zone attached through a synthetic ``self``
    interface, reachable from all zones adjacent to that firewall.
    """
    zone_names = sorted(node.name for node in topology.zones())
    known = set(zone_names)
    check_transitivity(known, transitivity)

    node_name = {node.node_id: node.name for node in topology.nodes}
    # Per firewall, in link order: (name of the zone faced, interface facing it).
    fw_attached: dict[str, list[tuple[str, str]]] = {fw.name: [] for fw in topology.firewalls()}
    for link in topology.links:
        fw_attached[node_name[link.firewall]].append((node_name[link.zone], link.interface))

    fwz_names: list[str] = []
    if add_firewall_zones:
        for fw_name in sorted(fw_attached):
            fwz = FIREWALL_ZONE_PREFIX + fw_name
            if fwz in known:
                raise SchemaError(f"firewall-zone name {fwz!r} collides with a topology zone")
            if any(iface == FIREWALL_ZONE_INTERFACE for _, iface in fw_attached[fw_name]):
                raise SchemaError(
                    f"firewall {fw_name!r} already has an interface named "
                    f"{FIREWALL_ZONE_INTERFACE!r}; cannot add its firewall-zone"
                )
            fw_attached[fw_name].append((fwz, FIREWALL_ZONE_INTERFACE))
            fwz_names.append(fwz)

    ordered_names = zone_names + sorted(fwz_names)
    zones = tuple(
        Zone(index, name, bool(transitivity.get(name, False)))
        for index, name in enumerate(ordered_names)
    )
    index_of = {zone.name: zone.index for zone in zones}

    devices: dict[str, PhysicalDevice] = {}
    conduits: dict[tuple[int, int], set[DirectedDevice]] = {}
    for fw_name in sorted(fw_attached):
        attached = fw_attached[fw_name]
        device = PhysicalDevice(fw_name, tuple(iface for _, iface in attached))
        devices[fw_name] = device
        for zone_a, iface_a in attached:
            for zone_b, iface_b in attached:
                if zone_a == zone_b:
                    continue
                i, j = index_of[zone_a], index_of[zone_b]
                conduits.setdefault((i, j), set()).add(
                    DirectedDevice(device, i, j, iface_a, iface_b)
                )

    return ZoneConduitModel(
        zones=zones,
        devices=devices,
        conduits={pair: frozenset(devs) for pair, devs in conduits.items()},
    )


def adjacency_matrix(model: ZoneConduitModel) -> PathMatrix:
    """Single-step path matrix: ONE on the diagonal, conduit devices elsewhere.

    Built straight in PathMatrix's int form: the table is the model's
    directed devices in canonical order (device_key), the diagonal cells
    hold the empty path () and cell (i, j) one (k,) per device on conduit
    (i, j).  No path object is built until a cell is read.
    """
    table = sorted((dev for devs in model.conduits.values() for dev in devs), key=device_key)
    rows = [[[()] if i == j else [] for j in range(model.n)] for i in range(model.n)]
    for k, dev in enumerate(table):
        rows[dev.from_zone][dev.to_zone].append((k,))
    return PathMatrix(rows, table)


def transitivity_matrix(model: ZoneConduitModel) -> PathMatrix:
    """Diagonal matrix marking which zones may carry through-traffic: the
    empty path () in cell (z, z) of each transitive zone z, over an empty
    table, built straight in PathMatrix's int form."""
    zones = range(model.n)
    return PathMatrix(
        [[[()] if i == j and model.zones[i].transitive else [] for j in zones] for i in zones], ()
    )
