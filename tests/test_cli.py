import json

import pytest

from policymap.cli import main

from conftest import Z1_Z3_LAB_CLOSED, Z1_Z3_ALL_OPEN, data_path

DIAMOND = str(data_path("diamond.graphml"))
POLICY = str(data_path("diamond_ssh.policy"))
POLICY_Z4_CLOSED = str(data_path("diamond_ssh_z4closed.policy"))
POLICY_MIXED = str(data_path("diamond_mixed.policy"))
EMPTY_POLICY = str(data_path("empty.policy"))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMap:
    def test_structured_map(self, capsys):
        code, out, _ = run(capsys, "map", DIAMOND, POLICY, "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["assignments"]) == 7
        assert [e["device"] for e in doc["assignments"]] == list("ABCDEFG")
        assert doc["by_device"]["A"]["e0"]["inbound"] == [
            "security Z1 -> Z3 : tcp/22"
        ]

    def test_text_map(self, capsys):
        code, out, _ = run(capsys, "map", DIAMOND, POLICY)
        assert code == 0
        assert "DEVICE" in out and "inbound" in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "map", DIAMOND, POLICY_MIXED, "--format", "structured")
        _, second, _ = run(capsys, "map", DIAMOND, POLICY_MIXED, "--format", "structured")
        assert first == second

    def test_empty_policy_empty_map(self, capsys):
        code, out, _ = run(capsys, "map", DIAMOND, EMPTY_POLICY, "--format", "structured")
        assert code == 0
        assert json.loads(out)["assignments"] == []

    def test_unknown_zone_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.policy"
        bad.write_text("zone Z9 transitive\n")
        code, _, err = run(capsys, "map", DIAMOND, str(bad))
        assert code == 1
        assert "UnknownZone" in err

    def test_unreachable_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "unreachable.policy"
        # nothing transitive and no direct Z1-Z3 conduit
        bad.write_text("security Z1 -> Z3 : tcp/22\n")
        code, _, err = run(capsys, "map", DIAMOND, str(bad))
        assert code == 2
        assert "Z1" in err and "Z3" in err

    def test_malformed_topology_exits_1(self, capsys, tmp_path):
        broken = tmp_path / "broken.graphml"
        broken.write_text("<graphml><graph>")
        code, _, err = run(capsys, "map", str(broken), POLICY)
        assert code == 1
        assert "MalformedDocument" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "map.json"
        code, out, _ = run(
            capsys, "map", DIAMOND, POLICY, "--format", "structured", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert len(json.loads(target.read_text())["assignments"]) == 7

    def test_unwritable_out_exits_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "map.json"
        code, out, err = run(capsys, "map", DIAMOND, POLICY, "--out", str(target))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(target) in err


class TestVerify:
    def _mapfile(self, capsys, tmp_path, policy=POLICY):
        target = tmp_path / "assignments.json"
        code, _, _ = run(
            capsys, "map", DIAMOND, policy, "--format", "structured", "--out", str(target)
        )
        assert code == 0
        return target

    def test_self_map_verifies_clean(self, capsys, tmp_path):
        target = self._mapfile(capsys, tmp_path)
        code, out, _ = run(
            capsys, "verify", DIAMOND, POLICY, str(target), "--format", "structured"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["clean"] is True
        assert doc["counts"]["correct"] == 7

    def test_mixed_contexts_verify_clean(self, capsys, tmp_path):
        target = self._mapfile(capsys, tmp_path, POLICY_MIXED)
        code, out, _ = run(
            capsys, "verify", DIAMOND, POLICY_MIXED, str(target), "--format", "structured"
        )
        assert code == 0
        assert json.loads(out)["policy_deltas"] == []

    def test_perturbed_file_fails(self, capsys, tmp_path):
        target = self._mapfile(capsys, tmp_path)
        doc = json.loads(target.read_text())
        doc["assignments"][0]["direction"] = "outbound"
        target.write_text(json.dumps(doc))
        code, out, _ = run(
            capsys, "verify", DIAMOND, POLICY, str(target), "--format", "structured"
        )
        assert code == 3
        report = json.loads(out)
        assert report["counts"]["incorrect_direction"] == 1

    def test_malformed_assignments_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "verify", DIAMOND, POLICY, str(bad))
        assert code == 1
        assert "AssignmentsError" in err


class TestPaths:
    def test_all_transitive_far_pair(self, capsys):
        code, out, _ = run(capsys, "paths", DIAMOND, POLICY, "Z1", "Z3")
        assert code == 0
        assert out.strip() == Z1_Z3_ALL_OPEN

    def test_closed_lab_zone(self, capsys):
        code, out, _ = run(capsys, "paths", DIAMOND, POLICY_Z4_CLOSED, "Z1", "Z3")
        assert code == 0
        assert out.strip() == Z1_Z3_LAB_CLOSED

    def test_same_zone_twice(self, capsys):
        code, out, _ = run(capsys, "paths", DIAMOND, POLICY, "Z2", "Z2")
        assert code == 0
        assert out.strip() == "{ε}"

    def test_unknown_zone(self, capsys):
        code, _, err = run(capsys, "paths", DIAMOND, POLICY, "Z1", "Z9")
        assert code == 1
        assert "UnknownZone" in err


class TestWhatIf:
    def test_closing_lab_zone_removes_detour_devices(self, capsys):
        code, out, _ = run(
            capsys, "whatif", DIAMOND, POLICY, "--set-non-transitive", "Z4",
            "--format", "structured",
        )
        assert code == 0
        doc = json.loads(out)
        assert [e["device"] for e in doc["removed"]] == ["E", "F", "G"]
        assert doc["added"] == []
        assert doc["new_unreachable"] == []

    def test_no_change_requested_empty_diff(self, capsys):
        code, out, _ = run(capsys, "whatif", DIAMOND, POLICY, "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["removed"] == [] and doc["added"] == []
        code, out, _ = run(capsys, "whatif", DIAMOND, POLICY)
        assert out == "no changes\n"

    def test_dropping_conduit_devices_reports_unreachable(self, capsys):
        code, out, _ = run(
            capsys, "whatif", DIAMOND, POLICY_Z4_CLOSED,
            "--drop-device", "C", "--drop-device", "D",
            "--format", "structured",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["new_unreachable"] == [
            {"context": "security", "src": "Z1", "dst": "Z3"}
        ]

    def test_opening_zone_resolves_unreachable(self, capsys, tmp_path):
        policy = tmp_path / "closed.policy"
        policy.write_text(
            "zone Z1 transitive\nzone Z3 transitive\n"
            "security Z1 -> Z3 : tcp/22\n"
        )
        code, out, _ = run(
            capsys, "whatif", DIAMOND, str(policy), "--set-transitive", "Z2",
            "--format", "structured",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["resolved_unreachable"] == [
            {"context": "security", "src": "Z1", "dst": "Z3"}
        ]
        assert [e["device"] for e in doc["added"]] == ["A", "B", "C", "D"]

    def test_unknown_drop_device(self, capsys):
        code, _, err = run(capsys, "whatif", DIAMOND, POLICY, "--drop-device", "ZZZ")
        assert code == 1
        assert "UnknownDevice" in err


class TestFirewallZones:
    def test_management_rule_maps_through_owning_firewall(self, capsys, tmp_path):
        policy = tmp_path / "mgmt.policy"
        policy.write_text(
            "zone Z1 transitive\nzone Z2 transitive\n"
            "security Z1 -> fwz-C : tcp/22\n"
        )
        code, out, _ = run(
            capsys, "map", DIAMOND, str(policy), "--firewall-zones",
            "--format", "structured",
        )
        assert code == 0
        doc = json.loads(out)
        assert [e["device"] for e in doc["assignments"]] == ["A", "B", "C"]

    def test_management_zone_unknown_without_flag(self, capsys, tmp_path):
        policy = tmp_path / "mgmt.policy"
        policy.write_text("security Z1 -> fwz-C : tcp/22\n")
        code, _, err = run(capsys, "map", DIAMOND, str(policy))
        assert code == 1
        assert "UnknownZone" in err


class TestExitCodeContract:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (("map", DIAMOND, POLICY), 0),
            (("map", DIAMOND, "missing.policy"), 1),
            (("paths", DIAMOND, POLICY, "Z1", "Z9"), 1),
        ],
    )
    def test_table(self, capsys, argv, expected):
        code, _, _ = run(capsys, *argv)
        assert code == expected
