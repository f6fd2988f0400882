import re

import pytest

from policymap.algebra import ONE, ZERO, DirectedDevice, PhysicalDevice
from policymap.errors import MalformedDocument, SchemaError, UnknownZone
from policymap.topology import (
    FIREWALL_ZONE_INTERFACE,
    NetworkTopology,
    TopologyLink,
    TopologyNode,
    Zone,
    ZoneConduitModel,
    adjacency_matrix,
    build_model,
    parse_topology,
    transitivity_matrix,
)

from conftest import ALL_TRANSITIVE, Z4_CLOSED


def graphml(body: str) -> str:
    return f"""<?xml version="1.0"?>
<graphml xmlns="http://graphml.graphdrawing.org/xmlns">
  <key id="k" for="node" attr.name="kind" attr.type="string"/>
  <key id="n" for="node" attr.name="name" attr.type="string"/>
  <key id="i" for="edge" attr.name="interface" attr.type="string"/>
  <graph id="g" edgedefault="undirected">
{body}
  </graph>
</graphml>"""


class TestParse:
    def test_lab_network_counts(self, diamond_topology):
        assert len(diamond_topology.zones()) == 4
        assert len(diamond_topology.firewalls()) == 7
        assert len(diamond_topology.links) == 14
        assert sorted(z.name for z in diamond_topology.zones()) == ["Z1", "Z2", "Z3", "Z4"]

    def test_single_zone_no_firewalls(self):
        topo = parse_topology(graphml('<node id="a"><data key="k">zone</data></node>'))
        assert len(topo.zones()) == 1
        assert topo.links == ()

    def test_display_name_defaults_to_node_id(self):
        topo = parse_topology(graphml('<node id="core"><data key="k">zone</data></node>'))
        assert topo.zones()[0].name == "core"

    def test_zone_zone_edge_rejected(self):
        doc = graphml(
            '<node id="a"><data key="k">zone</data></node>'
            '<node id="b"><data key="k">zone</data></node>'
            '<edge source="a" target="b"><data key="i">e0</data></edge>'
        )
        with pytest.raises(SchemaError, match="zone to zone"):
            parse_topology(doc)

    def test_firewall_firewall_edge_rejected(self):
        doc = graphml(
            '<node id="a"><data key="k">firewall</data></node>'
            '<node id="b"><data key="k">firewall</data></node>'
            '<edge source="a" target="b"><data key="i">e0</data></edge>'
        )
        with pytest.raises(SchemaError):
            parse_topology(doc)

    def test_missing_kind_rejected(self):
        with pytest.raises(SchemaError, match="kind"):
            parse_topology(graphml('<node id="a"/>'))

    def test_duplicate_interface_rejected(self):
        doc = graphml(
            '<node id="z"><data key="k">zone</data></node>'
            '<node id="y"><data key="k">zone</data></node>'
            '<node id="f"><data key="k">firewall</data></node>'
            '<edge source="f" target="z"><data key="i">e0</data></edge>'
            '<edge source="f" target="y"><data key="i">e0</data></edge>'
        )
        with pytest.raises(SchemaError, match="two links"):
            parse_topology(doc)

    def test_duplicate_firewall_zone_link_rejected(self):
        doc = graphml(
            '<node id="z"><data key="k">zone</data></node>'
            '<node id="f"><data key="k">firewall</data></node>'
            '<edge source="f" target="z"><data key="i">e0</data></edge>'
            '<edge source="f" target="z"><data key="i">e1</data></edge>'
        )
        with pytest.raises(SchemaError, match="two links to zone"):
            parse_topology(doc)

    def test_missing_interface_rejected(self):
        doc = graphml(
            '<node id="z"><data key="k">zone</data></node>'
            '<node id="f"><data key="k">firewall</data></node>'
            '<edge source="f" target="z"/>'
        )
        with pytest.raises(SchemaError, match="interface"):
            parse_topology(doc)

    def test_malformed_xml(self):
        with pytest.raises(MalformedDocument):
            parse_topology("<graphml><graph>")

    @pytest.mark.parametrize("encoding", ["bogus", "rot13", "base64", "uu", "utf-32", "idna"])
    def test_undecodable_encoding_declaration(self, encoding):
        doc = f'<?xml version="1.0" encoding="{encoding}"?><graphml><graph/></graphml>'
        with pytest.raises(MalformedDocument):
            parse_topology(doc.encode("ascii"))

    def test_non_graphml_root(self):
        with pytest.raises(MalformedDocument):
            parse_topology("<gexf></gexf>")

    def test_unknown_keys_ignored(self, diamond_topology):
        # diamond.graphml carries a stray 'comment' key on z4.
        assert any(z.name == "Z4" for z in diamond_topology.zones())


class TestBuildModel:
    def test_lab_network_model(self, diamond_model):
        assert diamond_model.n == 4
        assert len(diamond_model.conduits) == 8
        assert sum(map(len, diamond_model.conduits.values())) == 14
        assert all(z.transitive for z in diamond_model.zones)

    def test_symmetric_conduits(self, diamond_model):
        for (i, j), devs in diamond_model.conduits.items():
            for dev in devs:
                reverse = DirectedDevice(
                    dev.physical, j, i, dev.egress_interface, dev.ingress_interface
                )
                assert reverse in diamond_model.conduits[(j, i)]

    def test_star_device_expands_to_simple_edges(self):
        nodes = (
            TopologyNode("s3", "zone", "S3"),
            TopologyNode("s4", "zone", "S4"),
            TopologyNode("s5", "zone", "S5"),
            TopologyNode("g", "firewall", "G"),
        )
        links = (
            TopologyLink("g", "e0", "s3"),
            TopologyLink("g", "e1", "s4"),
            TopologyLink("g", "e2", "s5"),
        )
        model = build_model(NetworkTopology(nodes, links), {})
        assert sum(map(len, model.conduits.values())) == 6
        assert len(model.conduits) == 6
        # each directed device picks the pairwise interfaces
        (dev,) = model.conduits[(0, 1)]
        assert (dev.ingress_interface, dev.egress_interface) == ("e0", "e1")

    def test_empty_transitivity_defaults_non_transitive(self, diamond_topology):
        model = build_model(diamond_topology, {})
        assert not any(z.transitive for z in model.zones)

    def test_unknown_zone_in_transitivity(self, diamond_topology):
        with pytest.raises(UnknownZone):
            build_model(diamond_topology, {"Z9": True})

    def test_firewall_zones_added(self, diamond_topology):
        model = build_model(diamond_topology, dict(ALL_TRANSITIVE), add_firewall_zones=True)
        assert model.n == 11
        fwz = [z for z in model.zones if z.name.startswith("fwz-")]
        assert [z.name for z in fwz] == [f"fwz-{d}" for d in "ABCDEFG"]
        assert not any(z.transitive for z in fwz)
        # firewall A's management zone hangs off A through the synthetic interface
        i = model.zone_index("Z1")
        j = model.zone_index("fwz-A")
        (dev,) = model.conduits[(i, j)]
        assert dev.device_id == "A"
        assert dev.egress_interface == FIREWALL_ZONE_INTERFACE
        # every firewall-zone conduit goes through its own firewall
        for zone in fwz:
            owner = zone.name.removeprefix("fwz-")
            for (a, b), devs in model.conduits.items():
                if zone.index in (a, b):
                    assert {d.device_id for d in devs} == {owner}

    def test_firewall_zone_interface_collision(self):
        nodes = (
            TopologyNode("z", "zone", "Z"),
            TopologyNode("y", "zone", "Y"),
            TopologyNode("f", "firewall", "F"),
        )
        links = (
            TopologyLink("f", FIREWALL_ZONE_INTERFACE, "z"),
            TopologyLink("f", "e1", "y"),
        )
        with pytest.raises(SchemaError, match="self"):
            build_model(NetworkTopology(nodes, links), {}, add_firewall_zones=True)


class TestConduitChecks:
    """ZoneConduitModel rejects an empty, misfiled or one-way conduit."""

    X = PhysicalDevice("X", ("e0", "e1"))
    X12 = DirectedDevice(X, 0, 1, "e0", "e1")
    X21 = DirectedDevice(X, 1, 0, "e1", "e0")

    def model(self, conduits):
        zones = tuple(Zone(index, f"Z{index + 1}", False) for index in range(3))
        return ZoneConduitModel(zones=zones, devices={"X": self.X}, conduits=conduits)

    def test_symmetric_pair_accepted(self):
        model = self.model({(0, 1): frozenset({self.X12}), (1, 0): frozenset({self.X21})})
        assert model.n == 3

    def test_empty_conduit(self):
        with pytest.raises(ValueError, match=re.escape("empty conduit (0, 1)")):
            self.model({(0, 1): frozenset()})

    def test_device_filed_under_wrong_pair(self):
        with pytest.raises(ValueError, match=re.escape("device X12 filed under conduit (0, 2)")):
            self.model({(0, 2): frozenset({self.X12}), (2, 0): frozenset({self.X21})})

    @pytest.mark.parametrize(
        "reverse",
        [
            {},
            # Oriented 1 -> 0 but with ingress and egress not swapped.
            {(1, 0): frozenset({DirectedDevice(X, 1, 0, "e0", "e1")})},
            # The right reverse, but on another conduit.
            {(2, 0): frozenset({X21})},
        ],
        ids=["none", "unswapped-interfaces", "other-conduit"],
    )
    def test_missing_reverse(self, reverse):
        with pytest.raises(ValueError, match=re.escape("conduit (0, 1) lacks the reverse of X12")):
            self.model({(0, 1): frozenset({self.X12}), **reverse})


class TestMatrices:
    def test_adjacency_matches_single_step_conduits(self, diamond_model):
        a = adjacency_matrix(diamond_model)
        expected = [
            ["{ε}", "{A12, B12}", "{}", "{E14}"],
            ["{A21, B21}", "{ε}", "{C23, D23}", "{}"],
            ["{}", "{C32, D32}", "{ε}", "{F34, G34}"],
            ["{E41}", "{}", "{F43, G43}", "{ε}"],
        ]
        got = [[a.cell(i, j).text() for j in range(4)] for i in range(4)]
        assert got == expected

    def test_adjacency_cells_are_short(self, diamond_model):
        a = adjacency_matrix(diamond_model)
        for i in range(a.n):
            assert a.cell(i, i) == ONE
            for j in range(a.n):
                assert all(len(p) <= 1 for p in a.cell(i, j))

    def test_single_zone_adjacency(self):
        model = build_model(
            NetworkTopology((TopologyNode("z", "zone", "Z"),), ()), {}
        )
        a = adjacency_matrix(model)
        assert a.n == 1 and a.cell(0, 0) == ONE

    def test_three_zone_chain_has_no_direct_far_cell(self):
        nodes = (
            TopologyNode("z1", "zone", "Z1"),
            TopologyNode("z2", "zone", "Z2"),
            TopologyNode("z3", "zone", "Z3"),
            TopologyNode("x", "firewall", "X"),
            TopologyNode("y", "firewall", "Y"),
        )
        links = (
            TopologyLink("x", "e0", "z1"),
            TopologyLink("x", "e1", "z2"),
            TopologyLink("y", "e0", "z2"),
            TopologyLink("y", "e1", "z3"),
        )
        model = build_model(NetworkTopology(nodes, links), {})
        a = adjacency_matrix(model)
        assert a.cell(0, 2) == ZERO
        assert a.cell(0, 1).text() == "{X12}"

    def test_transitivity_all_on_equals_identity(self, diamond_model):
        from policymap.closure import identity_matrix

        assert transitivity_matrix(diamond_model) == identity_matrix(4)

    def test_transitivity_zone4_off(self, diamond_topology):
        model = build_model(diamond_topology, dict(Z4_CLOSED))
        t = transitivity_matrix(model)
        assert t.cell(3, 3) == ZERO
        assert all(t.cell(i, i) == ONE for i in range(3))

    def test_transitivity_none(self, diamond_topology):
        model = build_model(diamond_topology, {})
        t = transitivity_matrix(model)
        assert all(t.cell(i, j) == ZERO for i in range(4) for j in range(4))
