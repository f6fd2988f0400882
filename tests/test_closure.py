import random

import pytest

from policymap.algebra import (
    ONE,
    ZERO,
    DevicePath,
    DirectedDevice,
    PathMatrix,
    PathSet,
    PhysicalDevice,
)
from policymap.closure import (
    brute_force_paths,
    check_convergence,
    identity_matrix,
    iterate,
    matrix_product,
    matrix_union,
    right_iterate,
)
from policymap.errors import DimensionMismatch, NoConvergence
from policymap.topology import (
    NetworkTopology,
    TopologyLink,
    TopologyNode,
    adjacency_matrix,
    build_model,
    transitivity_matrix,
)

from conftest import Z1_Z3_LAB_CLOSED, Z1_Z3_ALL_OPEN
from modelgen import random_model


def am_tm(model):
    return adjacency_matrix(model), transitivity_matrix(model)


class TestRightIterate:
    def test_all_transitive_far_cell(self, diamond_model):
        astar = right_iterate(*am_tm(diamond_model))
        assert astar.cell(0, 2).text() == Z1_Z3_ALL_OPEN
        assert len(astar.cell(0, 2)) == 6

    def test_non_transit_lab_zone_drops_detour(self, diamond_model_z4_closed):
        astar = right_iterate(*am_tm(diamond_model_z4_closed))
        assert astar.cell(0, 2).text() == Z1_Z3_LAB_CLOSED

    def test_single_zone(self):
        model = build_model(NetworkTopology((TopologyNode("z", "zone", "Z"),), ()), {})
        astar = right_iterate(*am_tm(model))
        assert astar.n == 1 and astar.cell(0, 0) == ONE

    def test_first_iterate_equals_adjacency(self, diamond_model):
        a, t = am_tm(diamond_model)
        assert iterate(a, t, 1) == a

    def test_dimension_mismatch(self, diamond_model):
        a, _ = am_tm(diamond_model)
        with pytest.raises(DimensionMismatch):
            right_iterate(a, identity_matrix(3))

    def test_bad_transitivity_matrix_rejected(self, diamond_model):
        a, _ = am_tm(diamond_model)
        with pytest.raises(ValueError, match="diagonal"):
            right_iterate(a, a)

    def test_bad_adjacency_diagonal_rejected(self, diamond_model):
        _, t = am_tm(diamond_model)
        off = PathMatrix(tuple(tuple(ZERO for _ in range(4)) for _ in range(4)))
        with pytest.raises(ValueError, match="diagonal"):
            right_iterate(off, t)


class TestBruteForce:
    def test_matches_iteration_on_lab_network(self, diamond_model):
        assert brute_force_paths(diamond_model) == right_iterate(*am_tm(diamond_model))

    def test_two_zones_one_firewall(self):
        nodes = (
            TopologyNode("z1", "zone", "Z1"),
            TopologyNode("z2", "zone", "Z2"),
            TopologyNode("x", "firewall", "X"),
        )
        links = (TopologyLink("x", "e0", "z1"), TopologyLink("x", "e1", "z2"))
        model = build_model(NetworkTopology(nodes, links), {})
        astar = brute_force_paths(model)
        assert astar.cell(0, 1).text() == "{X12}"

    def test_multihomed_device_cannot_carry_detour(self):
        # Firewall A touches all three zones, B only the first two.  The
        # detour 1->3->2 through A twice is invalid, so with zone 3
        # transitive the 1->2 paths are just the direct ones.
        nodes = (
            TopologyNode("z1", "zone", "Z1"),
            TopologyNode("z2", "zone", "Z2"),
            TopologyNode("z3", "zone", "Z3"),
            TopologyNode("a", "firewall", "A"),
            TopologyNode("b", "firewall", "B"),
        )
        links = (
            TopologyLink("a", "e1", "z1"),
            TopologyLink("a", "e2", "z2"),
            TopologyLink("a", "e0", "z3"),
            TopologyLink("b", "e0", "z1"),
            TopologyLink("b", "e1", "z2"),
        )
        model = build_model(
            NetworkTopology(nodes, links), {"Z1": True, "Z2": True, "Z3": True}
        )
        for astar in (brute_force_paths(model), right_iterate(*am_tm(model))):
            assert astar.cell(0, 1).text() == "{A12, B12}"


class TestConvergence:
    def test_lab_network_within_bound(self, diamond_model):
        assert check_convergence(*am_tm(diamond_model)) <= 3

    def test_single_zone_converges_immediately(self):
        model = build_model(NetworkTopology((TopologyNode("z", "zone", "Z"),), ()), {})
        assert check_convergence(*am_tm(model)) == 0

    def test_random_models_fixpoint_equals_brute_force(self):
        rng = random.Random(0xC105)
        for _ in range(25):
            model = random_model(rng, max_zones=6)
            a, t = am_tm(model)
            k = check_convergence(a, t)
            assert k <= model.n - 1
            oracle = brute_force_paths(model)
            assert iterate(a, t, max(k, 1)) == oracle
            # The early-stopping closure is the paper's literal A<n-1>.
            assert right_iterate(a, t) == iterate(a, t, model.n - 1)
            # Every prefix of a valid path is valid, so the fixpoint comes
            # exactly at the longest path's hop count.
            cells = (oracle.cell(i, j) for i in range(model.n) for j in range(model.n))
            assert k == max((len(p) for cell in cells for p in cell), default=0)

    def test_monotone_iterates(self):
        rng = random.Random(0xBEEF)
        for _ in range(10):
            model = random_model(rng, max_zones=6)
            a, t = am_tm(model)
            previous = iterate(a, t, 1)
            for k in range(2, model.n + 1):
                current = iterate(a, t, k)
                for i in range(model.n):
                    for j in range(model.n):
                        assert previous.cell(i, j).issubset(current.cell(i, j))
                previous = current

    def test_crafted_matrix_fails_to_converge(self):
        # A lawful-looking 2x2 matrix whose cells hold paths over four
        # foreign zones: products keep growing past the n-1 bound, which
        # is exactly the bug class NoConvergence exists to catch.
        def step(name, i, j):
            return DevicePath(
                (DirectedDevice(PhysicalDevice(name, ("e0", "e1")), i, j, "e0", "e1"),)
            )

        a = PathMatrix(
            (
                (ONE, PathSet.of(step("X", 1, 2), step("Z", 3, 4))),
                (PathSet.of(step("Y", 2, 3)), ONE),
            )
        )
        with pytest.raises(NoConvergence):
            check_convergence(a, identity_matrix(2))


class TestClosureProperties:
    def test_oracle_equivalence_sample(self):
        rng = random.Random(0xACE)
        for _ in range(30):
            model = random_model(rng)
            assert right_iterate(*am_tm(model)) == brute_force_paths(model)

    def test_paths_are_bounded_and_transit_only_through_transitive(self):
        rng = random.Random(0xFEED)
        for _ in range(20):
            model = random_model(rng)
            astar = right_iterate(*am_tm(model))
            transitive = {z.index for z in model.zones if z.transitive}
            for i in range(model.n):
                for j in range(model.n):
                    for p in astar.cell(i, j):
                        assert len(p) <= model.n - 1
                        for zone in p.zone_sequence()[1:-1]:
                            assert zone in transitive

    def test_non_transitive_endpoints_still_reachable(self, diamond_topology):
        # Destination zone's own flag never blocks paths ending there.
        model = build_model(
            diamond_topology, {"Z1": True, "Z2": True, "Z3": False, "Z4": False}
        )
        astar = right_iterate(*am_tm(model))
        assert astar.cell(0, 2).text() == Z1_Z3_LAB_CLOSED

    def test_matrix_ops_dimension_checks(self):
        with pytest.raises(DimensionMismatch):
            matrix_union(identity_matrix(2), identity_matrix(3))
        with pytest.raises(DimensionMismatch):
            matrix_product(identity_matrix(2), identity_matrix(3))
