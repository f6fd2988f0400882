import random
from dataclasses import replace
from fractions import Fraction

import pytest

from policymap.errors import ContextMismatch, UnknownZone, UnreachablePair
from policymap.mapper import (
    AssignmentClass,
    DeviceAssignment,
    Direction,
    DirectionConvention,
    MeasurementStrategy,
    map_policy,
    verify_assignments,
)
from policymap.policy import (
    MeasurementValue,
    PolicyContext,
    PolicyRule,
    QosValue,
    SecurityValue,
    ServiceSet,
)

from conftest import closure_of
from modelgen import random_model, random_rules

SSH = ServiceSet.from_ranges([("tcp", 22, 22)])
SEC = PolicyContext.SECURITY

RULE_Z1_Z3 = PolicyRule("Z1", "Z3", SecurityValue(SSH))


def triples(assignments):
    return sorted((a.device_id, a.interface, a.direction.value) for a in assignments)


class TestMapPolicy:
    def test_security_rule_lands_on_every_path_device(self, diamond_model, diamond_astar):
        got = map_policy(SEC, [RULE_Z1_Z3], diamond_astar, diamond_model)
        assert triples(got) == [
            ("A", "e0", "inbound"),
            ("B", "e0", "inbound"),
            ("C", "e0", "inbound"),
            ("D", "e0", "inbound"),
            ("E", "e0", "inbound"),
            ("F", "e1", "inbound"),
            ("G", "e1", "inbound"),
        ]

    def test_closed_lab_zone_shrinks_the_map(self, diamond_model_z4_closed):
        astar = closure_of(diamond_model_z4_closed)
        got = map_policy(SEC, [RULE_Z1_Z3], astar, diamond_model_z4_closed)
        assert triples(got) == [
            ("A", "e0", "inbound"),
            ("B", "e0", "inbound"),
            ("C", "e0", "inbound"),
            ("D", "e0", "inbound"),
        ]

    def test_unreachable_pair(self, diamond_topology):
        from policymap.topology import build_model

        model = build_model(diamond_topology, {})  # nothing transitive
        astar = closure_of(model)
        with pytest.raises(UnreachablePair, match="Z1.*Z3"):
            map_policy(SEC, [RULE_Z1_Z3], astar, model)

    def test_two_faults_raise_contexts_first_then_in_rule_order(self, diamond_topology):
        # Every context is checked before any rule is mapped, and an
        # unreachable rule does not stop the walk, so a later rule's own
        # error comes first; among unreachable rules the first one is named.
        from policymap.topology import build_model

        model = build_model(diamond_topology, {})  # nothing transitive
        astar = closure_of(model)
        measure = PolicyRule("Z1", "Z2", MeasurementValue(SSH))
        unknown = PolicyRule("Z1", "Z9", SecurityValue(SSH))
        also_unreachable = PolicyRule("Z2", "Z4", SecurityValue(SSH))
        with pytest.raises(ContextMismatch):
            map_policy(SEC, [RULE_Z1_Z3, measure], astar, model)
        with pytest.raises(UnknownZone):
            map_policy(SEC, [RULE_Z1_Z3, unknown], astar, model)
        with pytest.raises(UnreachablePair, match="Z1.*Z3"):
            map_policy(SEC, [RULE_Z1_Z3, also_unreachable], astar, model)

    def test_unknown_zone(self, diamond_model, diamond_astar):
        rule = PolicyRule("Z1", "Z9", SecurityValue(SSH))
        with pytest.raises(UnknownZone):
            map_policy(SEC, [rule], diamond_astar, diamond_model)

    def test_egress_outbound_convention(self, diamond_model, diamond_astar):
        got = map_policy(
            SEC, [RULE_Z1_Z3], diamond_astar, diamond_model,
            convention=DirectionConvention.EGRESS_OUTBOUND,
        )
        assert triples(got) == [
            ("A", "e1", "outbound"),
            ("B", "e1", "outbound"),
            ("C", "e1", "outbound"),
            ("D", "e1", "outbound"),
            ("E", "e1", "outbound"),
            ("F", "e0", "outbound"),
            ("G", "e0", "outbound"),
        ]

    def test_measurement_first_strategy_takes_path_heads(self, diamond_model, diamond_astar):
        rule = PolicyRule("Z1", "Z3", MeasurementValue(SSH))
        got = map_policy(
            PolicyContext.MEASUREMENT, [rule], diamond_astar, diamond_model,
            measurement_strategy=MeasurementStrategy.FIRST,
        )
        assert triples(got) == [
            ("A", "e0", "inbound"),
            ("B", "e0", "inbound"),
            ("E", "e0", "inbound"),
        ]

    def test_qos_replicates_on_all_devices(self, diamond_model, diamond_astar):
        rule = PolicyRule("Z1", "Z3", QosValue(Fraction(50), SSH))
        got = map_policy(PolicyContext.QOS, [rule], diamond_astar, diamond_model)
        assert len(got) == 7

    def test_context_mismatch(self, diamond_model, diamond_astar):
        with pytest.raises(ContextMismatch):
            map_policy(PolicyContext.QOS, [RULE_Z1_Z3], diamond_astar, diamond_model)

    def test_every_path_is_covered(self):
        rng = random.Random(0x5EED)
        for _ in range(15):
            model = random_model(rng, max_zones=6, max_firewalls=9)
            astar = closure_of(model)
            rules = random_rules(rng, model, SEC, max_rules=3)
            assignments = map_policy(SEC, rules, astar, model)
            placed = {
                (a.rule.src, a.rule.dst, a.device_id) for a in assignments
            }
            for rule in rules:
                i, j = model.zone_index(rule.src), model.zone_index(rule.dst)
                for path in astar.cell(i, j):
                    assert any(
                        (rule.src, rule.dst, step.device_id) in placed
                        for step in path.steps
                    )


class TestVerify:
    def _mapped(self, diamond_model, diamond_astar):
        return map_policy(SEC, [RULE_Z1_Z3], diamond_astar, diamond_model)

    def test_self_map_is_clean(self, diamond_model, diamond_astar):
        existing = self._mapped(diamond_model, diamond_astar)
        report = verify_assignments(SEC, [RULE_Z1_Z3], diamond_astar, diamond_model, existing)
        assert report.clean
        assert report.counts == {
            "correct": 7,
            "incorrect_firewall": 0,
            "incorrect_interface": 0,
            "incorrect_direction": 0,
        }
        assert report.deltas == ()

    def test_egress_outbound_realization_also_correct(self, diamond_model, diamond_astar):
        existing = map_policy(
            SEC, [RULE_Z1_Z3], diamond_astar, diamond_model,
            convention=DirectionConvention.EGRESS_OUTBOUND,
        )
        report = verify_assignments(SEC, [RULE_Z1_Z3], diamond_astar, diamond_model, existing)
        assert report.clean

    def test_wrong_firewall_flagged(self, diamond_model, diamond_astar):
        existing = self._mapped(diamond_model, diamond_astar)
        # Z1->Z2 traffic never crosses C..G? It does cross none of the
        # missing devices; swap one assignment onto a device absent from
        # every Z1->Z3 path by inventing a foreign box.
        broken = replace(existing[0], device_id="rogue")
        report = verify_assignments(
            SEC, [RULE_Z1_Z3], diamond_astar, diamond_model, [broken] + existing[1:]
        )
        assert report.counts["incorrect_firewall"] == 1
        assert report.counts["incorrect_interface"] == 0
        assert report.counts["incorrect_direction"] == 0
        assert report.counts["correct"] == 6

    def test_wrong_interface_flagged(self, diamond_model, diamond_astar):
        existing = self._mapped(diamond_model, diamond_astar)
        broken = replace(existing[0], interface="e9")
        report = verify_assignments(
            SEC, [RULE_Z1_Z3], diamond_astar, diamond_model, [broken] + existing[1:]
        )
        assert report.counts["incorrect_interface"] == 1
        assert report.counts["incorrect_firewall"] == 0
        assert report.counts["incorrect_direction"] == 0

    def test_wrong_direction_flagged(self, diamond_model, diamond_astar):
        existing = self._mapped(diamond_model, diamond_astar)
        broken = replace(existing[0], direction=Direction.OUTBOUND)
        report = verify_assignments(
            SEC, [RULE_Z1_Z3], diamond_astar, diamond_model, [broken] + existing[1:]
        )
        assert report.counts["incorrect_direction"] == 1
        assert report.counts["incorrect_firewall"] == 0
        assert report.counts["incorrect_interface"] == 0

    def test_classes_partition_the_audit(self, diamond_model, diamond_astar):
        existing = self._mapped(diamond_model, diamond_astar)
        perturbed = [
            replace(existing[0], device_id="rogue"),
            replace(existing[1], interface="e9"),
            replace(existing[2], direction=Direction.OUTBOUND),
        ] + existing[3:]
        report = verify_assignments(SEC, [RULE_Z1_Z3], diamond_astar, diamond_model, perturbed)
        assert sum(report.counts.values()) == len(perturbed)
        assert report.counts["correct"] == 4

    def test_missing_assignments_surface_as_policy_delta(self, diamond_model, diamond_astar):
        existing = self._mapped(diamond_model, diamond_astar)
        # Drop firewall A's assignment: the A12C23/A12D23 paths now deny
        # everything, but B's paths still allow ssh, so the derived value
        # stays ssh and only A-path redundancy is lost.  Drop both A and
        # B: every Z2 route denies, the lab detour still carries ssh.
        # Drop E too: derived collapses to deny-all and must be flagged.
        kept = [a for a in existing if a.device_id not in {"A", "B", "E"}]
        report = verify_assignments(SEC, [RULE_Z1_Z3], diamond_astar, diamond_model, kept)
        assert len(report.deltas) == 1
        delta = report.deltas[0]
        assert (delta.src, delta.dst) == ("Z1", "Z3")
        assert delta.derived == SecurityValue(ServiceSet())

    def test_assignments_for_unintended_pair_create_delta(self, diamond_model, diamond_astar):
        stray_rule = PolicyRule("Z1", "Z2", SecurityValue(SSH))
        stray = DeviceAssignment("A", "e0", Direction.INBOUND, stray_rule)
        report = verify_assignments(SEC, [], diamond_astar, diamond_model, [stray])
        # Placement is fine (A12 is on Z1->Z2 paths) but nothing should be
        # allowed between those zones.
        assert report.counts["correct"] == 1
        assert len(report.deltas) == 1

    def test_round_trip_random_models(self):
        rng = random.Random(0xD1CE)
        for _ in range(20):
            model = random_model(rng, max_zones=6, max_firewalls=9)
            astar = closure_of(model)
            ctx = rng.choice(list(PolicyContext))
            rules = random_rules(rng, model, ctx, max_rules=3)
            convention = rng.choice(list(DirectionConvention))
            strategy = rng.choice(list(MeasurementStrategy))
            assignments = map_policy(ctx, rules, astar, model, convention, strategy)
            report = verify_assignments(ctx, rules, astar, model, assignments)
            assert report.error_count == 0
            assert report.deltas == ()

    def test_qos_overprovision_reported_not_flagged(self, diamond_model, diamond_astar):
        rule = PolicyRule("Z1", "Z3", QosValue(Fraction(50), SSH))
        assignments = map_policy(PolicyContext.QOS, [rule], diamond_astar, diamond_model)
        report = verify_assignments(
            PolicyContext.QOS, [rule], diamond_astar, diamond_model, assignments
        )
        assert report.clean
        assert len(report.overprovisioned) == 1
        # six alternative paths each guaranteeing the full 50
        assert report.overprovisioned[0].derived.bandwidth == Fraction(300)


class TestPathDevices:
    def test_occurrences_across_paths(self, diamond_astar, diamond_model):
        i, j = diamond_model.zone_index("Z1"), diamond_model.zone_index("Z3")
        devs = [diamond_astar.table[k] for k in diamond_astar.occurrence_indices(i, j)]
        assert sorted(d.device_id for d in devs) == list("ABCDEFG")


class TestContextChecks:
    """Each entry point names the offending context, the kind of input and
    its own task; rules are checked before assignments."""

    QOS_RULE = PolicyRule("Z1", "Z3", QosValue(Fraction(10), SSH))

    def message(self, call, *args):
        with pytest.raises(ContextMismatch) as caught:
            call(*args)
        return str(caught.value)

    def test_map_policy_names_the_rule(self, diamond_model, diamond_astar):
        assert self.message(
            map_policy, PolicyContext.QOS, [RULE_Z1_Z3], diamond_astar, diamond_model
        ) == "security rule passed to qos mapping"

    def test_verify_names_the_rule(self, diamond_model, diamond_astar):
        assert self.message(
            verify_assignments, SEC, [self.QOS_RULE], diamond_astar, diamond_model, []
        ) == "qos rule passed to security verification"

    def test_verify_names_the_assignment(self, diamond_model, diamond_astar):
        existing = map_policy(SEC, [RULE_Z1_Z3], diamond_astar, diamond_model)
        assert self.message(
            verify_assignments, PolicyContext.QOS, [], diamond_astar, diamond_model, existing
        ) == "security assignment passed to qos verification"

    def test_verify_checks_rules_before_assignments(self, diamond_model, diamond_astar):
        existing = map_policy(SEC, [RULE_Z1_Z3], diamond_astar, diamond_model)
        assert self.message(
            verify_assignments,
            PolicyContext.MEASUREMENT, [self.QOS_RULE], diamond_astar, diamond_model, existing,
        ) == "qos rule passed to measurement verification"
