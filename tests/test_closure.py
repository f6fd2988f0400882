import json
import random
from dataclasses import replace
from fractions import Fraction
from functools import reduce

import pytest

from policymap.algebra import (
    ONE,
    ZERO,
    DevicePath,
    DirectedDevice,
    PathMatrix,
    PathSet,
    PhysicalDevice,
    device_key,
    steps_key,
)
from policymap.cli import _drop_devices
from policymap.closure import (
    brute_force_paths,
    edit_closure,
    identity_matrix,
    iterate,
    matrix_product,
    matrix_union,
    right_iterate,
)
from policymap.documents import (
    load_assignments,
    map_document,
    merge_reports,
    to_json,
    verify_document,
)
from policymap.errors import DimensionMismatch, PolicymapError
from policymap.mapper import (
    AssignmentClass,
    Direction,
    DirectionConvention,
    MeasurementStrategy,
    Placements,
    PolicyDelta,
    VerificationReport,
    map_rules,
    realizations,
    verify_assignments,
)
from policymap.policy import (
    EMPTY_SERVICES,
    MeasurementValue,
    PolicyContext,
    QosValue,
    SecurityValue,
    compose_parallel,
    value_from_text,
    value_to_text,
)
from policymap.topology import (
    NetworkTopology,
    TopologyLink,
    TopologyNode,
    adjacency_matrix,
    build_model,
    transitivity_matrix,
)

from conftest import Z1_Z3_LAB_CLOSED, Z1_Z3_ALL_OPEN, closure_of, literal_end_to_end
from modelgen import random_model, random_rules, random_topology, random_value


def am_tm(model):
    return adjacency_matrix(model), transitivity_matrix(model)


def fixpoint_round(adjacency, transitivity):
    """The first k with A<k> = A<k+1>, found through the reference iterate."""
    k = 0
    while iterate(adjacency, transitivity, k) != iterate(adjacency, transitivity, k + 1):
        k += 1
    return k


def random_models():
    rng = random.Random(0xACE)
    return [random_model(rng) for _ in range(30)]


def whatif_draws():
    """Random networks, each with a firewall to drop and a zone to flip."""
    rng = random.Random(0x5E1)
    for _ in range(50):
        topology, names = random_topology(rng)
        transitivity = {name: rng.random() < 0.6 for name in names}
        yield topology, transitivity, rng.choice(topology.firewalls()), rng.choice(names)


def whatif_variant_models():
    """Random models, each also with one firewall dropped and with one
    zone's transitivity flipped, as a what-if changes them."""
    for topology, transitivity, firewall, flipped in whatif_draws():
        dropped = firewall.node_id
        variants = (
            (topology, transitivity),
            (
                NetworkTopology(
                    tuple(n for n in topology.nodes if n.node_id != dropped),
                    tuple(l for l in topology.links if l.firewall != dropped),
                ),
                transitivity,
            ),
            (topology, {**transitivity, flipped: not transitivity[flipped]}),
        )
        for variant_topology, variant_transitivity in variants:
            yield build_model(variant_topology, variant_transitivity)


def sparse_sixty_draws():
    """Three random networks of 50 to 60 zones and at most 80 firewalls,
    with their transitivity.

    Draws with fewer zones but as many firewalls are dense, and their
    path counts (the oracle's time too) grow exponentially, so only the
    large-zone draws are kept.
    """
    rng = random.Random(0x600)
    kept = 0
    while kept < 3:
        topology, names = random_topology(rng, max_zones=60, max_firewalls=80)
        transitivity = {name: rng.random() < 0.6 for name in names}
        if len(names) >= 50:
            kept += 1
            yield topology, transitivity


def sparse_sixty_models():
    for topology, transitivity in sparse_sixty_draws():
        yield build_model(topology, transitivity)


def outcome(call, *args):
    """A call's result, or the type and message of the policymap error it raises."""
    try:
        return call(*args)
    except PolicymapError as exc:
        return type(exc), str(exc)


def foreign_zone_matrix():
    """A lawful-looking 2x2 matrix whose cells hold paths over four foreign zones."""

    def step(name, i, j):
        return DevicePath(
            (DirectedDevice(PhysicalDevice(name, ("e0", "e1")), i, j, "e0", "e1"),)
        )

    rows = (
        (ONE, PathSet.of(step("X", 1, 2), step("Z", 3, 4))),
        (PathSet.of(step("Y", 2, 3)), ONE),
    )
    return PathMatrix.build(2, lambda i, j: rows[i][j])


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
        off = PathMatrix.build(4, lambda i, j: ZERO)
        with pytest.raises(ValueError, match="diagonal"):
            right_iterate(off, t)

    def test_adjacency_cell_must_hold_one_step_paths_between_its_zones(self):
        # Cell (0, 1) holds X12 and Z34, neither a step from zone 0 to zone 1.
        with pytest.raises(ValueError, match="not a one-step path from 0 to 1"):
            right_iterate(foreign_zone_matrix(), identity_matrix(2))

    def test_transitivity_diagonal_must_be_one_or_zero(self, diamond_model):
        a, _ = am_tm(diamond_model)
        odd = PathMatrix.build(4, lambda i, j: a.cell(0, 1) if i == j == 0 else ZERO)
        with pytest.raises(ValueError, match="neither ONE nor ZERO"):
            right_iterate(a, odd)


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
        assert fixpoint_round(*am_tm(diamond_model)) <= 3

    def test_single_zone_converges_immediately(self):
        model = build_model(NetworkTopology((TopologyNode("z", "zone", "Z"),), ()), {})
        assert fixpoint_round(*am_tm(model)) == 0

    def test_random_models_fixpoint_equals_brute_force(self):
        rng = random.Random(0xC105)
        for _ in range(25):
            model = random_model(rng, max_zones=6)
            a, t = am_tm(model)
            k = fixpoint_round(a, t)
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
                        assert previous.cell(i, j).paths <= current.cell(i, j).paths
                previous = current


class TestClosureProperties:
    def test_oracle_equivalence_sample(self):
        for model in random_models():
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

    def test_random_models_and_whatif_variants_match_oracle_and_reference(self):
        for model in whatif_variant_models():
            a, t = am_tm(model)
            closure = right_iterate(a, t)
            assert closure == brute_force_paths(model)
            assert closure == iterate(a, t, model.n - 1)

    def test_sparse_sixty_zone_models_match_oracle(self):
        # Many zones, few paths: a dense loop that pays n^3 cell products
        # per round, empty cells included, would make this test slow.
        for model in sparse_sixty_models():
            assert right_iterate(*am_tm(model)) == brute_force_paths(model)

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


def edited_and_recomputed(topology, transitivity, drops, flips, firewall_zones=False):
    """The changed network's closure two ways: the base closure edited, and
    right_iterate of the changed model built from scratch.  The edit must
    leave the base closure as it was."""
    changed = {**transitivity, **{zone: not transitivity.get(zone, False) for zone in flips}}
    model = build_model(topology, transitivity, add_firewall_zones=firewall_zones)
    base = closure_of(model)
    zones = range(model.n)
    rows = [[list(base.index_paths(i, j)) for j in zones] for i in zones]
    edited = edit_closure(
        base,
        [zone.transitive for zone in model.zones],
        [changed.get(zone.name, False) for zone in model.zones],
        set(drops),
    )
    assert [[list(base.index_paths(i, j)) for j in zones] for i in zones] == rows
    changed_model = build_model(
        _drop_devices(topology, drops), changed, add_firewall_zones=firewall_zones
    )
    return edited, closure_of(changed_model)


def assert_same_paths(edited, recomputed):
    """edited == recomputed, and each cell holds each of its paths once:
    == compares cells as sets, so it would pass a path grown twice."""
    assert edited == recomputed
    number = {dev: k for k, dev in enumerate(recomputed.table)}
    for i in range(edited.n):
        for j in range(edited.n):
            paths = sorted(
                tuple(number[edited.table[k]] for k in p) for p in edited.index_paths(i, j)
            )
            assert paths == sorted(recomputed.index_paths(i, j))
            assert len(set(paths)) == len(paths)


class TestEditClosure:
    """whatif's changed closure, the base closure filtered for dropped
    firewalls and closed zones and grown through each opened zone, equals
    the closure of the changed network, cell for cell and path for path."""

    def test_random_draws_equal_the_recompute(self):
        rng = random.Random(0xED17)
        edits = {"drop": 0, "open": 0, "close": 0}
        for _ in range(300):
            topology, names = random_topology(rng)
            transitivity = {name: rng.random() < 0.6 for name in names}
            firewalls = [node.name for node in topology.firewalls()]
            drops = rng.sample(firewalls, rng.randint(0, min(2, len(firewalls))))
            flips = rng.sample(names, rng.randint(0, min(3, len(names))))
            edits["drop"] += bool(drops)
            edits["open"] += any(not transitivity[zone] for zone in flips)
            edits["close"] += any(transitivity[zone] for zone in flips)
            for firewall_zones in (False, True):
                edited, recomputed = edited_and_recomputed(
                    topology, transitivity, drops, flips, firewall_zones
                )
                assert_same_paths(edited, recomputed)
        assert min(edits.values()) > 100

    def test_whatif_variants_equal_the_recompute(self):
        for topology, transitivity, firewall, flipped in whatif_draws():
            for drops, flips in (([firewall.name], []), ([], [flipped]), ([firewall.name], [flipped])):
                edited, recomputed = edited_and_recomputed(topology, transitivity, drops, flips)
                assert_same_paths(edited, recomputed)

    def test_an_edited_closure_edits_again(self):
        # The first edit keeps the dropped firewall in its table, in no cell;
        # the second, not told of it, must not grow paths through it.
        opened = 0
        for topology, transitivity, firewall, flipped in whatif_draws():
            once, _ = edited_and_recomputed(topology, transitivity, [firewall.name], [])
            assert firewall.name in {dev.device_id for dev in once.table}
            zones = build_model(topology, transitivity).zones
            twice = edit_closure(
                once,
                [zone.transitive for zone in zones],
                [zone.transitive != (zone.name == flipped) for zone in zones],
                (),
            )
            _, recomputed = edited_and_recomputed(
                topology, transitivity, [firewall.name], [flipped]
            )
            assert_same_paths(twice, recomputed)
            opened += not transitivity[flipped]
        assert opened > 10

    def test_sparse_sixty_draws_equal_the_recompute(self):
        rng = random.Random(0x6ED)
        for topology, transitivity in sparse_sixty_draws():
            drop = rng.choice(topology.firewalls()).name
            flip = rng.choice(sorted(transitivity))
            edited, recomputed = edited_and_recomputed(topology, transitivity, [drop], [flip])
            assert_same_paths(edited, recomputed)

    def test_opening_two_zones_grows_through_both(self, diamond_topology):
        # Z2 -> Z1 -> Z4 -> Z3 exists only once both Z1 and Z4 carry traffic.
        closed = {name: False for name in ("Z1", "Z2", "Z3", "Z4")}
        edited, recomputed = edited_and_recomputed(diamond_topology, closed, [], ["Z1", "Z4"])
        assert_same_paths(edited, recomputed)
        assert "A21E14F43" in edited.cell(1, 2).text()


class TestCompactCells:
    """The closure's device table, step tuples, canonical order and
    occurrence sets, which map, verify and whatif read in place of
    DevicePaths, agree with the oracle's PathSets."""

    def test_placements_match_occurrences(self):
        rng = random.Random(0x91A)
        for model in random_models():
            closure = right_iterate(*am_tm(model))
            rules = [rule for ctx in PolicyContext for rule in random_rules(rng, model, ctx)]
            for side, convention in enumerate(DirectionConvention):
                for strategy in MeasurementStrategy:
                    placements, unreachable = map_rules(rules, closure, model, convention, strategy)
                    expected = set()
                    for rule in rules:
                        i, j = model.zone_index(rule.src), model.zone_index(rule.dst)
                        targets = closure.occurrence_indices(i, j)
                        if rule.context is PolicyContext.MEASUREMENT and (
                            strategy is MeasurementStrategy.FIRST
                        ):
                            targets = {path[0] for path in closure.index_paths(i, j)}
                        expected |= {(rule, realizations(closure.table[k])[side]) for k in targets}
                    assert unreachable == []
                    assert len(placements) == len(expected)
                    assert {
                        (placements.rules[r], placements.sites[s]) for r, s in placements.rows
                    } == expected
                    ordered = list(placements)
                    assert ordered == sorted(ordered, key=lambda a: (
                        a.rule.context.value, a.rule.src, a.rule.dst,
                        a.device_id, a.interface, a.direction.value,
                    ))
                    assert map_document(placements) == map_document(
                        Placements.of((a.rule, a.site) for a in ordered)
                    )

    @pytest.mark.parametrize(
        "models", [random_models, whatif_variant_models, sparse_sixty_models]
    )
    def test_adjacency_rows_match_pathset_build(self, models):
        for model in models():
            adjacency = adjacency_matrix(model)
            built = PathMatrix.build(
                model.n,
                lambda i, j: ONE if i == j else PathSet(
                    frozenset(DevicePath((dev,)) for dev in model.conduits.get((i, j), ()))
                ),
            )
            transitivity = transitivity_matrix(model)
            built_transitivity = PathMatrix.build(
                model.n, lambda i, j: ONE if i == j and model.zones[i].transitive else ZERO
            )
            for ints, pathsets in ((adjacency, built), (transitivity, built_transitivity)):
                assert ints.table == pathsets.table
                for i in range(model.n):
                    for j in range(model.n):
                        assert set(ints.index_paths(i, j)) == set(pathsets.index_paths(i, j))
                assert ints == pathsets

    @pytest.mark.parametrize(
        "models", [random_models, whatif_variant_models, sparse_sixty_models]
    )
    def test_cells_and_audit_match_oracle(self, models):
        rng = random.Random(0xC0C)
        for model in models():
            closure = right_iterate(*am_tm(model))
            oracle = brute_force_paths(model)
            # Both ways in number the devices in one canonical order.
            assert closure.table == oracle.table == tuple(sorted(closure.table, key=device_key))
            for i in range(model.n):
                for j in range(model.n):
                    cell = oracle.cell(i, j)
                    steps = [tuple(closure.table[k] for k in p) for p in closure.index_paths(i, j)]
                    assert sorted(steps, key=steps_key) == [p.steps for p in cell.sorted_paths()]
                    assert {closure.table[k] for k in closure.occurrence_indices(i, j)} == {
                        s for p in cell for s in p.steps
                    }
            for ctx in PolicyContext:
                rules = random_rules(rng, model, ctx)
                placed, _ = map_rules(rules, closure, model)
                existing = [
                    replace(a, direction=Direction.OUTBOUND) if rng.random() < 0.2
                    else replace(a, rule=replace(a.rule, value=random_value(rng, ctx)))
                    if rng.random() < 0.2 else a
                    for a in placed
                    if rng.random() < 0.9
                ]
                assert outcome(verify_assignments, ctx, rules, closure, model, existing) == (
                    outcome(verify_assignments, ctx, rules, oracle, model, existing)
                )


class TestRowAudit:
    """verify's audit of an assignments file's rows classifies every entry
    as the per-entry rule does: the occurrences of its rule's zone pair and
    the sites that realize them.  Its deltas, or its error, are those of a
    per-occurrence audit, also where two values reach one occurrence."""

    @staticmethod
    def reference_class(closure, model, entry) -> str:
        i, j = model.zone_index(entry["src"]), model.zone_index(entry["dst"])
        realizing = {
            site for k in closure.occurrence_indices(i, j) for site in realizations(closure.table[k])
        }
        site = (entry["device"], entry["interface"], entry["direction"])
        if site in realizing:
            return "correct"
        if site[0] not in {device for device, _, _ in realizing}:
            return "incorrect_firewall"
        if site[:2] not in {(device, interface) for device, interface, _ in realizing}:
            return "incorrect_interface"
        return "incorrect_direction"

    @staticmethod
    def reference_audit(ctx, rules, closure, model, placements):
        """verify_assignments' deltas and overprovisioned, derived occurrence
        by occurrence: each takes the distinct values, in row order, of the
        rows whose site realizes it, composed in parallel."""
        intended = {(rule.src, rule.dst): rule for rule in rules}
        rows = list(dict.fromkeys(
            (placements.rules[r], placements.sites[s]) for r, s in placements.rows
        ))
        default = {
            PolicyContext.SECURITY: SecurityValue(EMPTY_SERVICES),
            PolicyContext.MEASUREMENT: MeasurementValue(EMPTY_SERVICES),
            PolicyContext.QOS: QosValue(Fraction(0), None),
        }[ctx]
        deltas, overprovisioned = [], []
        for src, dst in sorted(set(intended) | {(rule.src, rule.dst) for rule, _ in rows}):
            i, j = model.zone_index(src), model.zone_index(dst)
            if not closure.index_paths(i, j):
                continue
            policies = {}
            for k in sorted(closure.occurrence_indices(i, j)):
                found = []
                for rule, site in rows:
                    if (rule.src, rule.dst) == (src, dst) and rule.value not in found and (
                        site in realizations(closure.table[k])
                    ):
                        found.append(rule.value)
                policies[closure.table[k]] = reduce(
                    lambda p, q: compose_parallel(ctx, p, q), found
                ) if found else default
            derived = literal_end_to_end(ctx, policies, closure.cell(i, j))
            wanted = intended[src, dst].value if (src, dst) in intended else default
            delta = PolicyDelta(src, dst, ctx, wanted, derived)
            if ctx is not PolicyContext.QOS:
                deltas += [delta] * (derived != wanted)
            elif derived.bandwidth < wanted.bandwidth:
                deltas.append(delta)
            elif wanted.bandwidth < derived.bandwidth:
                overprovisioned.append(delta)
        return tuple(deltas), tuple(overprovisioned)

    @staticmethod
    def overlapping_entries(rng, closure, model, rules, entries) -> list[dict]:
        """Entries whose value differs from another's at one occurrence: one
        at the same site as an entry, and two at both realizations of one
        occurrence.  A qos value mostly keeps the predicate it meets."""

        def other(ctx, value):
            found = random_value(rng, ctx)
            if ctx is PolicyContext.QOS and rng.random() < 0.8:
                found = QosValue(found.bandwidth, value.service)
            return value_to_text(found)

        added = []
        for entry in rng.sample(entries, min(2, len(entries))):
            ctx = PolicyContext(entry["context"])
            value = value_from_text(ctx, entry["value"])
            added.append(dict(entry, value=other(ctx, value)))
        for rule in rng.sample(rules, min(2, len(rules))):
            i, j = model.zone_index(rule.src), model.zone_index(rule.dst)
            k = rng.choice(sorted(closure.occurrence_indices(i, j)))
            fields = {"context": rule.context.value, "src": rule.src, "dst": rule.dst}
            for site in realizations(closure.table[k]):
                device, interface, direction = site
                added.append(dict(
                    fields, device=device, interface=interface, direction=direction,
                    value=other(rule.context, rule.value),
                ))
        return added

    def test_row_classes_match_per_entry_classes(self):
        rng = random.Random(0xA0D)
        unreachable_entries = duplicates = overlapping = raised = 0
        seen = set()
        for model in random_models():
            closure = right_iterate(*am_tm(model))
            rules = [rule for ctx in PolicyContext for rule in random_rules(rng, model, ctx)]
            every_site = [site for dev in closure.table for site in realizations(dev)]
            names = [zone.name for zone in model.zones]
            unreachable = [
                (names[i], names[j])
                for i in range(model.n)
                for j in range(model.n)
                if i != j and not closure.occurrence_indices(i, j)
            ]
            for convention in DirectionConvention:
                placements, _ = map_rules(rules, closure, model, convention)
                entries = []
                for entry in map_document(placements)["assignments"]:
                    if rng.random() < 0.1:
                        continue
                    if rng.random() < 0.3:
                        device, interface, direction = rng.choice(every_site)
                        entry.update(device=device, interface=interface, direction=direction)
                    entries.append(entry)
                    if rng.random() < 0.1:
                        entries.append(dict(entry))
                        duplicates += 1
                for src, dst in rng.sample(unreachable, min(2, len(unreachable))):
                    ctx = rng.choice(list(PolicyContext))
                    value = value_to_text(random_value(rng, ctx))
                    device, interface, direction = rng.choice(every_site)
                    entries.append({
                        "device": device, "interface": interface, "direction": direction,
                        "context": ctx.value, "src": src, "dst": dst, "value": value,
                    })
                    unreachable_entries += 1
                if rng.random() < 0.5:
                    entries += self.overlapping_entries(rng, closure, model, rules, entries)
                    overlapping += 1
                rng.shuffle(entries)

                loaded = load_assignments(json.dumps(entries))
                # One row per entry, in file order, duplicates kept.
                assert len(loaded) == len(entries)
                assert [loaded.sites[s] for _, s in loaded.rows] == [
                    (e["device"], e["interface"], e["direction"]) for e in entries
                ]
                reports = []
                for ctx in PolicyContext:
                    selected = loaded.select(ctx)
                    ctx_rules = [rule for rule in rules if rule.context is ctx]
                    report = outcome(verify_assignments, ctx, ctx_rules, closure, model, selected)
                    expected = outcome(
                        self.reference_audit, ctx, ctx_rules, closure, model, selected
                    )
                    if not isinstance(report, VerificationReport):
                        assert report == expected
                        raised += 1
                        continue
                    assert (report.deltas, report.overprovisioned) == expected
                    reports.append(report)
                    assert report.findings == selected
                    seen.update(cls.value for cls in report.classes)
                    assert [cls.value for cls in report.classes] == [
                        self.reference_class(closure, model, entry)
                        for entry in entries
                        if entry["context"] == ctx.value
                    ]
                if len(reports) < len(PolicyContext):
                    continue
                # The reports share the file's tables, so the merge keeps them;
                # its document is the one of the rows interned afresh.
                merged = merge_reports(reports)
                assert merged.findings.rules is loaded.rules
                interned = replace(merged, findings=Placements.of(
                    (f.rules[r], f.sites[s]) for f in (rep.findings for rep in reports)
                    for r, s in f.rows
                ))
                assert to_json(verify_document(merged)) == to_json(verify_document(interned))
        assert unreachable_entries and duplicates and overlapping > 10 and raised
        assert seen == {cls.value for cls in AssignmentClass}
