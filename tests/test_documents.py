from fractions import Fraction

import pytest

from policymap.documents import (
    assignment_from_dict,
    assignment_to_dict,
    bandwidth_text,
    load_assignments,
    map_document,
    render_verify_text,
    value_from_text,
    value_to_text,
    verify_document,
)
from policymap.errors import AssignmentsError
from policymap.mapper import (
    DeviceAssignment,
    Direction,
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

SSH = ServiceSet.from_ranges([("tcp", 22, 22)])


class TestValueText:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (SecurityValue(SSH), "tcp/22"),
            (SecurityValue(ServiceSet()), "none"),
            (MeasurementValue(ServiceSet.from_ranges([("udp", 0, 65535)])), "udp/any"),
            (QosValue(Fraction(50), SSH), "tcp/22 min 50MB/s"),
            (QosValue(Fraction("12.5"), SSH), "tcp/22 min 12.5MB/s"),
        ],
    )
    def test_round_trip(self, value, expected):
        assert value_to_text(value) == expected
        ctx = {
            SecurityValue: PolicyContext.SECURITY,
            MeasurementValue: PolicyContext.MEASUREMENT,
            QosValue: PolicyContext.QOS,
        }[type(value)]
        assert value_from_text(ctx, expected) == value

    def test_awkward_fraction_stays_exact(self):
        third = Fraction(1, 3)
        assert bandwidth_text(third) == "1/3"
        assert value_from_text(
            PolicyContext.QOS, f"tcp/22 min {bandwidth_text(third)}MB/s"
        ) == QosValue(third, SSH)

    def test_predicate_less_qos_renders_for_reports(self):
        assert value_to_text(QosValue(Fraction(0), None)) == "min 0MB/s"


class TestAssignmentsIO:
    def test_dict_round_trip(self):
        rule = PolicyRule("Z1", "Z3", SecurityValue(SSH))
        assignment = DeviceAssignment("A", "e0", Direction.INBOUND, rule)
        assert assignment_from_dict(assignment_to_dict(assignment)) == assignment

    def test_load_accepts_bare_list(self):
        text = (
            '[{"device": "A", "interface": "e0", "direction": "inbound",'
            ' "context": "security", "src": "Z1", "dst": "Z3", "value": "tcp/22"}]'
        )
        (loaded,) = load_assignments(text)
        assert loaded.device_id == "A"

    @pytest.mark.parametrize(
        "text",
        [
            "{not json",
            "42",
            '{"assignments": 7}',
            '{"assignments": [{"device": "A"}]}',
            '[{"device": "A", "interface": "e0", "direction": "sideways",'
            ' "context": "security", "src": "Z1", "dst": "Z3", "value": "tcp/22"}]',
            '[{"device": "A", "interface": "e0", "direction": "inbound",'
            ' "context": "qos", "src": "Z1", "dst": "Z3", "value": "tcp/22 min 1/0MB/s"}]',
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(AssignmentsError):
            load_assignments(text)


class TestVerifyDocument:
    def test_unintended_qos_assignments_serialize(self, diamond_model, diamond_astar):
        # QoS placed for a pair nobody asked about: the intended baseline
        # is the predicate-less zero guarantee and must still render.
        rule = PolicyRule("Z1", "Z2", QosValue(Fraction(10), SSH))
        existing = map_policy(PolicyContext.QOS, [rule], diamond_astar, diamond_model)
        report = verify_assignments(PolicyContext.QOS, [], diamond_astar, diamond_model, existing)
        document = verify_document(report)
        assert document["counts"]["correct"] == len(existing)
        assert document["policy_deltas"] == []
        (entry,) = document["overprovisioned"]
        assert entry["intended"] == "min 0MB/s"
        assert render_verify_text(document).startswith("correct:")

    def test_by_device_tree_shape(self, diamond_model, diamond_astar):
        rule = PolicyRule("Z1", "Z3", SecurityValue(SSH))
        assignments = map_policy(PolicyContext.SECURITY, [rule], diamond_astar, diamond_model)
        tree = map_document(assignments)["by_device"]
        assert tree["F"]["e1"]["inbound"] == ["security Z1 -> Z3 : tcp/22"]
