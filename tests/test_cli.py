import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from policymap import cli, documents, mapper
from policymap.algebra import DevicePath
from policymap.cli import _drop_devices, main
from policymap.closure import brute_force_paths
from policymap.mapper import DeviceAssignment, map_rules
from policymap.policy import PolicyRule, SecurityValue, ServiceSet, load_policy
from policymap.topology import build_model, load_topology

from conftest import (
    Z1_Z3_LAB_CLOSED, Z1_Z3_ALL_OPEN, closure_of, data_path, hash_seed_env,
)
from modelgen import random_topology

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

    def test_structured_map_of_unusual_names(self, capsys, tmp_path):
        # Non-ASCII names, quotes and backslashes must be escaped as json.dumps does.
        renames = {">Z1<": ">Zürich<", ">Z3<": '>Z"3\\<', ">A<": ">Å<", ">C<": '>C"\\<',
                   ">e0<": ">eth-é<"}
        topology = Path(DIAMOND).read_text(encoding="utf-8")
        for old, new in renames.items():
            topology = topology.replace(old, new)
        (tmp_path / "net.graphml").write_text(topology, encoding="utf-8")
        (tmp_path / "net.policy").write_text(
            "".join(f"zone {z} transitive\n" for z in ("Zürich", "Z2", 'Z"3\\', "Z4"))
            + 'security Zürich -> Z"3\\ : tcp/22\n',
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys, "map", str(tmp_path / "net.graphml"), str(tmp_path / "net.policy"),
            "--format", "structured",
        )
        assert code == 0
        doc = json.loads(out)
        assert out == json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert {"Å", 'C"\\'} <= {e["device"] for e in doc["assignments"]}
        assert doc["by_device"]["Å"]["eth-é"]["inbound"] == ['security Zürich -> Z"3\\ : tcp/22']

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

    def test_first_unreachable_rule_is_taken_context_by_context(self, capsys, tmp_path):
        # Nothing is transitive, so Z1-Z3 and Z2-Z4 are both unreachable;
        # security rules are mapped before qos rules, whatever the line order.
        bad = tmp_path / "unreachable.policy"
        bad.write_text("qos Z1 -> Z3 : tcp/80 min 10MB/s\nsecurity Z2 -> Z4 : tcp/22\n")
        code, out, err = run(capsys, "map", DIAMOND, str(bad))
        assert code == 2 and out == ""
        assert err == (
            "error: UnreachablePair: no valid device path from zone 'Z2' to zone 'Z4'; "
            "security rule cannot be implemented\n"
        )

    def test_unknown_zone_after_unreachable_rule_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "unreachable.policy"
        bad.write_text("security Z1 -> Z3 : tcp/22\nsecurity Z1 -> Z9 : tcp/22\n")
        code, out, err = run(capsys, "map", DIAMOND, str(bad))
        assert code == 1 and out == ""
        assert err == "error: UnknownZone: unknown zone 'Z9'\n"

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

    def test_non_utf8_policy_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "latin.policy"
        bad.write_bytes(b"zone Z1 transitive\n\xff\xfe bad\n")
        code, out, err = run(capsys, "map", DIAMOND, str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "UnicodeDecodeError" in err

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

    def test_service_list_and_seven_decimal_qos_verify_clean(self, capsys, tmp_path):
        # any/80 maps to a three-service list and 0.1234567 to a p/q
        # bandwidth; verify must read both back from the map.
        policy = tmp_path / "wide.policy"
        policy.write_text(
            "".join(f"zone Z{i} transitive\n" for i in range(1, 5))
            + "qos Z1 -> Z3 : any/80 min 5MB/s\n"
            "measure Z2 -> Z4 : collect any/80\n"
            "qos Z3 -> Z1 : tcp/80 min 0.1234567MB/s\n"
        )
        target = self._mapfile(capsys, tmp_path, str(policy))
        assert "1234567/10000000MB/s" in target.read_text()
        code, out, err = run(
            capsys, "verify", DIAMOND, str(policy), str(target), "--format", "structured"
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["clean"] is True

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

    def test_qos_sum_too_long_to_print_exits_1(self, capsys, tmp_path):
        # A qos sum's denominators multiply across parallel paths: paths
        # capped at 1/(10**2200 + 7) and at 1/(10**2200 + 9) sum to a
        # bandwidth of about 4400 digits, more than int-to-str converts.
        policy = tmp_path / "qos.policy"
        policy.write_text(
            "".join(f"zone Z{i} transitive\n" for i in range(1, 5))
            + "qos Z1 -> Z3 : tcp/80 min 5MB/s\n"
        )
        target = self._mapfile(capsys, tmp_path, str(policy))
        doc = json.loads(target.read_text())
        for k, entry in enumerate(doc["assignments"]):
            entry["value"] = f"tcp/80 min 1/1{'0' * 2199}{'79'[k % 2]}MB/s"
        target.write_text(json.dumps(doc))
        for fmt in ("text", "structured"):
            code, out, err = run(
                capsys, "verify", DIAMOND, str(policy), str(target), "--format", fmt
            )
            assert (code, out) == (1, "")
            assert err.startswith("error: UnprintableValue: ") and err.count("\n") == 1

    def test_qos_predicate_mismatch_exits_1(self, capsys, tmp_path):
        target = self._mapfile(capsys, tmp_path, POLICY_MIXED)
        doc = json.loads(target.read_text())
        qos = [e for e in doc["assignments"] if e["context"] == "qos"]
        qos[0]["value"] = "udp/53 min 50MB/s"
        target.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", DIAMOND, POLICY_MIXED, str(target))
        assert (code, out) == (1, "")
        assert err == (
            "error: ContextMismatch: qos composition over different predicates "
            "(udp/53 vs tcp/80)\n"
        )

    def test_unknown_zone_entries_exit_1_naming_the_first_audited(self, capsys, tmp_path):
        # An unknown zone is malformed input, not a finding.  The audit
        # takes security before measurement, so the later security entry's
        # zone is the one named.
        target = self._mapfile(capsys, tmp_path, POLICY_MIXED)
        doc = json.loads(target.read_text())
        entry = doc["assignments"][0]
        doc["assignments"] = [
            dict(entry, context="measurement", src="Z1", dst="Z7", value="udp/any"),
            *doc["assignments"],
            dict(entry, context="security", src="Z9", dst="Z3", value="tcp/22"),
        ]
        target.write_text(json.dumps(doc))
        for fmt in ("text", "structured"):
            code, out, err = run(
                capsys, "verify", DIAMOND, POLICY_MIXED, str(target), "--format", fmt
            )
            assert (code, out) == (1, "")
            assert err == "error: UnknownZone: unknown zone 'Z9'\n"

    def test_malformed_assignments_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "verify", DIAMOND, POLICY, str(bad))
        assert code == 1
        assert "AssignmentsError" in err

    def test_non_utf8_assignments_exit_1(self, capsys, tmp_path):
        bad = tmp_path / "latin.json"
        bad.write_bytes(b"\xff\xfe[]")
        code, out, err = run(capsys, "verify", DIAMOND, POLICY, str(bad))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "UnicodeDecodeError" in err


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

    def test_structured_format_rejected(self, capsys):
        code, out, err = run(capsys, "paths", DIAMOND, POLICY, "Z1", "Z3", "--format", "structured")
        assert code == 1 and out == ""
        assert err == "error: paths has text output only; --format structured is not supported\n"

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


class TestWhatIfSemantics:
    """whatif compiles the network once and edits its closure for the
    changed run; the flags' precedence and the order of its errors stay."""

    @pytest.mark.parametrize(
        "policy, options",
        [
            ("diamond_ssh.policy", ("--drop-device", "A")),
            ("diamond_ssh.policy", ("--set-non-transitive", "Z4")),
            ("diamond_ssh_z4closed.policy", ("--set-transitive", "Z4")),
            (
                "diamond_ssh_z4closed.policy",
                ("--firewall-zones", "--drop-device", "C", "--set-transitive", "Z4"),
            ),
        ],
    )
    def test_one_model_and_one_closure(self, capsys, monkeypatch, policy, options):
        calls = []
        build, close = cli.build_model, cli.right_iterate

        def building(*args, **kwargs):
            calls.append("build_model")
            return build(*args, **kwargs)

        def closing(*args):
            calls.append("right_iterate")
            return close(*args)

        monkeypatch.setattr(cli, "build_model", building)
        monkeypatch.setattr(cli, "right_iterate", closing)
        code, out, _ = run(capsys, "whatif", DIAMOND, str(data_path(policy)), *options)
        assert code == 0 and out
        assert calls == ["build_model", "right_iterate"]

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_set_non_transitive_wins(self, capsys, fmt):
        closing = run(capsys, "whatif", DIAMOND, POLICY, "--set-non-transitive", "Z4", "--format", fmt)
        assert closing[0] == 0 and "E" in closing[1]
        for options in (
            ("--set-transitive", "Z4", "--set-non-transitive", "Z4"),
            ("--set-non-transitive", "Z4", "--set-transitive", "Z4"),
        ):
            assert run(capsys, "whatif", DIAMOND, POLICY, *options, "--format", fmt) == closing

    @pytest.mark.parametrize(
        "options",
        [("--set-transitive", "Z9", "--drop-device", "Q"), ("--drop-device", "Q", "--set-transitive", "Z9")],
    )
    def test_unknown_device_comes_before_unknown_zone(self, capsys, options):
        assert run(capsys, "whatif", DIAMOND, POLICY, *options) == (
            1, "", "error: UnknownDevice: no firewall named 'Q' in the topology\n"
        )

    def test_management_zone_cannot_be_named(self, capsys):
        assert run(
            capsys, "whatif", DIAMOND, POLICY, "--firewall-zones", "--set-transitive", "fwz-A"
        ) == (1, "", "error: UnknownZone: transitivity names unknown zone 'fwz-A'\n")

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_opening_two_zones_equals_the_recompute(self, capsys, tmp_path, fmt):
        # Z2 -> Z1 -> Z4 -> Z3 needs both opened zones: two pivots in turn.
        policy = tmp_path / "closed.policy"
        policy.write_text(
            "security Z2 -> Z3 : tcp/22\nqos Z2 -> Z4 : tcp/80 min 50MB/s\n"
            "measure Z1 -> Z3 : collect udp/any\nsecurity Z3 -> Z2 : tcp/443\n"
        )
        code, out, _ = run(
            capsys, "whatif", DIAMOND, str(policy),
            "--set-transitive", "Z1", "--set-transitive", "Z4", "--format", fmt,
        )
        topology, policy_doc = load_topology(DIAMOND), load_policy(str(policy))

        def mapped(transitivity):
            model = build_model(topology, transitivity)
            return cli._map_tolerant(
                policy_doc, closure_of(model), model,
                mapper.DirectionConvention.INGRESS_INBOUND, mapper.MeasurementStrategy.ALL,
            )

        document = documents.diff_document(
            *mapped(policy_doc.transitivity), *mapped({"Z1": True, "Z4": True})
        )
        assert len(document["added"]) > 0 and document["resolved_unreachable"]
        render = documents.to_json if fmt == "structured" else documents.render_diff_text
        assert (code, out) == (0, render(document))


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

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_dropped_firewall_zone_becomes_unreachable(self, capsys, tmp_path, fmt):
        # A's management zone stays, with no link, so the rule to it is
        # reported as now unreachable rather than naming an unknown zone.
        policy = tmp_path / "mgmt.policy"
        policy.write_text(
            "".join(f"zone Z{k} transitive\n" for k in range(1, 5))
            + "security Z1 -> fwz-A : tcp/22\n"
        )
        code, out, err = run(
            capsys, "whatif", DIAMOND, str(policy), "--firewall-zones",
            "--drop-device", "A", "--format", fmt,
        )
        assert (code, err) == (0, "")
        if fmt == "text":
            assert out.splitlines()[-1] == "! now unreachable: security Z1 -> fwz-A"
        else:
            doc = json.loads(out)
            assert doc["new_unreachable"] == [
                {"context": "security", "src": "Z1", "dst": "fwz-A"}
            ]
            assert [e["device"] for e in doc["removed"]] == list("AABCDEFG")

    def test_dropped_firewall_keeps_an_isolated_zone(self):
        # Each draw drops each of its firewalls in turn: 410 drops in all.
        rng = random.Random(0xF2)
        ssh = SecurityValue(ServiceSet.from_ranges([("tcp", 22, 22)]))
        drops = 0
        for _ in range(60):
            topology, names = random_topology(rng)
            transitivity = {name: rng.random() < 0.6 for name in names}
            for firewall in topology.firewalls():
                fwz = "fwz-" + firewall.name
                model = build_model(
                    _drop_devices(topology, [firewall.name]), transitivity,
                    add_firewall_zones=True,
                )
                assert fwz in [zone.name for zone in model.zones]
                assert all(
                    dev.device_id != firewall.name
                    for devs in model.conduits.values()
                    for dev in devs
                )
                rule = PolicyRule(rng.choice(names), fwz, ssh)
                placements, unreachable = map_rules([rule], closure_of(model), model)
                assert len(placements) == 0 and unreachable == [rule]
                drops += 1
        assert drops == 410

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


class TestPathObjects:
    """map, verify and whatif read the closure's int paths: they build no
    DevicePath at all, not even for the adjacency."""

    @pytest.mark.parametrize(
        "options, exit_code",
        [
            (("map",), 0),
            (("verify", "{map}"), 3),
            (("whatif", "--drop-device", "A", "--set-non-transitive", "Z2"), 0),
        ],
    )
    def test_no_path_is_built(self, capsys, monkeypatch, tmp_path, options, exit_code):
        target = tmp_path / "map.json"
        run(capsys, "map", DIAMOND, POLICY_MIXED, "--format", "structured", "--out", str(target))
        doc = json.loads(target.read_text())
        # A wrong value and a wrong interface: verify derives a delta and finds a fault.
        security = [e for e in doc["assignments"] if e["context"] == "security"]
        security[0]["value"] = "tcp/22"
        security[1]["interface"] = "e1"
        target.write_text(json.dumps(doc))

        built = []
        check = DevicePath.__post_init__

        def counting(path):
            built.append(path)
            check(path)

        monkeypatch.setattr(DevicePath, "__post_init__", counting)
        verb, *rest = options
        argv = [str(target) if arg == "{map}" else arg for arg in rest]
        code, out, _ = run(capsys, verb, DIAMOND, POLICY_MIXED, *argv)
        assert code == exit_code and out
        assert built == []


class TestPlacementObjects:
    """map and whatif hand map_rules' placement rows to the documents, and
    verify reads the assignments file into rows and audits those: none of
    them builds a DeviceAssignment."""

    @staticmethod
    def _count_assignments(monkeypatch) -> list:
        built = []
        init = DeviceAssignment.__init__

        def counting(assignment, *args):
            built.append(args)
            init(assignment, *args)

        monkeypatch.setattr(DeviceAssignment, "__init__", counting)
        return built

    @pytest.mark.parametrize(
        "options",
        [("map",), ("whatif", "--drop-device", "A", "--set-non-transitive", "Z2")],
    )
    def test_no_assignment_is_built(self, capsys, monkeypatch, options):
        built = self._count_assignments(monkeypatch)
        verb, *rest = options
        code, out, _ = run(capsys, verb, DIAMOND, POLICY_MIXED, *rest, "--format", "structured")
        assert code == 0 and json.loads(out)
        assert built == []

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    @pytest.mark.parametrize("faulted, exit_code", [(False, 0), (True, 3)])
    def test_verify_builds_no_assignment(
        self, capsys, monkeypatch, tmp_path, fmt, faulted, exit_code
    ):
        target = _write_map(capsys, tmp_path / "map.json", faulted)
        built = self._count_assignments(monkeypatch)
        code, out, _ = run(capsys, "verify", DIAMOND, POLICY_MIXED, str(target), "--format", fmt)
        assert code == exit_code and out
        assert built == []

    def test_verify_realizes_each_directed_device_once(self, capsys, monkeypatch, tmp_path):
        # The audit's site masks are built once per closure, not per context.
        target = _write_map(capsys, tmp_path / "map.json", True)
        realized, closures = [], []
        realize, verify = mapper.realizations, cli.verify_assignments

        def realizing(dev):
            realized.append(dev)
            return realize(dev)

        def verifying(ctx, rules, astar, *rest):
            closures.append(astar)
            return verify(ctx, rules, astar, *rest)

        monkeypatch.setattr(mapper, "realizations", realizing)
        monkeypatch.setattr(cli, "verify_assignments", verifying)
        code, out, _ = run(capsys, "verify", DIAMOND, POLICY_MIXED, str(target))
        assert code == 3 and out
        astar = closures[0]
        assert len(closures) == 3 and all(closure is astar for closure in closures)
        assert 0 < len(realized) <= len(astar.table)


def _write_map(capsys, target: Path, faulted: bool) -> Path:
    """The mixed diamond policy's map at target; faulted, it has a wrong
    value, a wrong interface and a repeated entry."""
    run(capsys, "map", DIAMOND, POLICY_MIXED, "--format", "structured", "--out", str(target))
    if faulted:
        doc = json.loads(target.read_text())
        security = [e for e in doc["assignments"] if e["context"] == "security"]
        security[0]["value"] = "tcp/22"
        security[1]["interface"] = "e1"
        doc["assignments"].append(security[1])
        target.write_text(json.dumps(doc))
    return target


class TestEntryLists:
    """Structured output writes each entry list from its rows, with no entry
    dict; the text renderers read the same lists by iterating them."""

    @pytest.mark.parametrize(
        "options, exit_code, render",
        [
            (("map",), 0, documents.render_map_text),
            (("verify", "{map}"), 3, documents.render_verify_text),
            (("whatif", "--drop-device", "A", "--set-non-transitive", "Z2"), 0,
             documents.render_diff_text),
        ],
    )
    def test_structured_output_builds_no_entry(
        self, capsys, monkeypatch, tmp_path, options, exit_code, render
    ):
        target = str(_write_map(capsys, tmp_path / "map.json", True))
        verb, *rest = options
        argv = [verb, DIAMOND, POLICY_MIXED, *(target if arg == "{map}" else arg for arg in rest)]
        read = []
        getitem = documents.Entries.__getitem__

        def counting(entries, i):
            read.append(i)
            return getitem(entries, i)

        monkeypatch.setattr(documents.Entries, "__getitem__", counting)
        code, out, _ = run(capsys, *argv, "--format", "structured")
        assert code == exit_code and read == []
        text_code, text, _ = run(capsys, *argv, "--format", "text")
        assert text_code == code and read
        assert text == render(json.loads(out))


def _graphml_of(topology) -> str:
    nodes = [
        f'<node id="{n.node_id}"><data key="k">{n.kind}</data><data key="n">{n.name}</data></node>'
        for n in topology.nodes
    ]
    edges = [
        f'<edge source="{l.firewall}" target="{l.zone}"><data key="i">{l.interface}</data></edge>'
        for l in topology.links
    ]
    return (
        '<graphml xmlns="http://graphml.graphdrawing.org/xmlns">\n'
        '<key id="k" for="node" attr.name="kind" attr.type="string"/>\n'
        '<key id="n" for="node" attr.name="name" attr.type="string"/>\n'
        '<key id="i" for="edge" attr.name="interface" attr.type="string"/>\n'
        '<graph id="g" edgedefault="undirected">\n'
        + "\n".join(nodes + edges)
        + "\n</graph>\n</graphml>\n"
    )


class TestDeterminism:
    def test_verify_error_is_independent_of_hash_seed(self, capsys, tmp_path):
        # Each of the seven qos placements gains a copy with another
        # predicate, so several devices compose mixed predicates; the
        # error must name the same pair of predicates under every seed.
        _, out, _ = run(capsys, "map", DIAMOND, POLICY_MIXED, "--format", "structured")
        doc = json.loads(out)
        qos = [entry for entry in doc["assignments"] if entry["context"] == "qos"]
        services = ("udp/53", "icmp/any", "tcp/443", "udp/5004", "tcp/25", "udp/123", "udp/53")
        assert len(qos) == len(services)
        doc["assignments"] += [
            dict(entry, value=f"{service} min 50MB/s") for entry, service in zip(qos, services)
        ]
        mixed = tmp_path / "mixed.json"
        mixed.write_text(json.dumps(doc))

        def verify(hash_seed):
            proc = subprocess.run(
                [sys.executable, "-m", "policymap.cli", "verify", DIAMOND, POLICY_MIXED, str(mixed)],
                capture_output=True, env=hash_seed_env(hash_seed), timeout=120,
            )
            assert proc.returncode == 1 and b"ContextMismatch" in proc.stderr, proc.stderr
            return proc.stdout, proc.stderr

        assert verify("1") == verify("2")

    def test_output_is_independent_of_hash_seed(self, tmp_path):
        # Path sets are frozensets, iterated in an order that follows string
        # hashes; no output may depend on that order.
        rng = random.Random(0xD7)
        names = []
        while len(names) != 7:
            topology, names = random_topology(rng, max_zones=7)
        transitivity = {name: rng.random() < 0.6 for name in names}
        closure = brute_force_paths(build_model(topology, transitivity))
        rules = (
            "security {} -> {} : tcp/22, tcp/443",
            "qos {} -> {} : tcp/80 min 12.5MB/s",
            "measure {} -> {} : collect udp/any",
        )
        pairs = [(i, j) for i in range(7) for j in range(7) if i != j and closure.cell(i, j)]
        lines = [
            f"zone {name} {'transitive' if flag else 'non-transitive'}"
            for name, flag in transitivity.items()
        ] + [rules[k % 3].format(names[i], names[j]) for k, (i, j) in enumerate(pairs)]
        graphml_path = tmp_path / "net.graphml"
        graphml_path.write_text(_graphml_of(topology))
        policy_path = tmp_path / "net.policy"
        policy_path.write_text("\n".join(lines) + "\n")

        flipped = names[0]
        flip = "--set-non-transitive" if transitivity[flipped] else "--set-transitive"
        whatif = ("--drop-device", topology.firewalls()[0].name, flip, flipped)
        # On the diamond, opening Z2 makes Z1-Z3 reachable and dropping E
        # cuts Z2-Z4, each in both directions and for several contexts, so
        # both reachability lists hold entries that unreachable rules sort into.
        reach_path = tmp_path / "reach.policy"
        reach_path.write_text(
            "zone Z1 transitive\nzone Z2 non-transitive\n"
            "zone Z3 non-transitive\nzone Z4 non-transitive\n"
            + "".join(
                f"{rule.format(a, b)}\n"
                for a, b in (("Z1", "Z3"), ("Z3", "Z1"), ("Z2", "Z4"), ("Z4", "Z2"))
                for rule in rules
            )
        )
        reach = (DIAMOND, str(reach_path), "--drop-device", "E", "--set-transitive", "Z2")
        net = (str(graphml_path), str(policy_path))
        busiest = max(pairs, key=lambda pair: len(closure.cell(*pair)))
        assert len(closure.cell(*busiest)) >= 3
        busiest_names = [names[k] for k in busiest]
        # Each seed verifies the structured map it printed itself, and a
        # copy whose qos bandwidths fall short: its derived sums over
        # parallel paths are reported as policy deltas.
        commands = (
            ("map", *net, "--format", "structured"),
            ("map", *net, "--format", "text"),
            ("whatif", *net, "--format", "structured", *whatif),
            ("whatif", *net, "--format", "text", *whatif),
            ("verify", *net, "--format", "structured", "{map}"),
            ("whatif", *reach, "--format", "structured"),
            ("whatif", *reach, "--format", "text"),
            ("paths", *net, "--format", "text", *busiest_names),
            ("verify", *net, "--format", "structured", "{short}"),
            ("verify", *net, "--format", "text", "{short}"),
        )

        def short_of(map_json: bytes) -> bytes:
            doc = json.loads(map_json)
            for k, entry in enumerate(doc["assignments"]):
                if entry["context"] == "qos":
                    entry["value"] = f"tcp/80 min {1 + k % 2}/{3 + k % 5}000MB/s"
            return json.dumps(doc).encode("utf-8")

        def outputs(hash_seed):
            env = hash_seed_env(hash_seed)
            files = {o: tmp_path / f"{o[1:-1]}-{hash_seed}.json" for o in ("{map}", "{short}")}
            stdouts = []
            for command in commands:
                proc = subprocess.run(
                    [sys.executable, "-m", "policymap.cli",
                     *(str(files.get(o, o)) for o in command)],
                    capture_output=True, env=env, timeout=120,
                )
                assert proc.returncode == (3 if "{short}" in command else 0), proc.stderr
                stdouts.append(proc.stdout)
                if len(stdouts) == 1:
                    files["{map}"].write_bytes(proc.stdout)
                    files["{short}"].write_bytes(short_of(proc.stdout))
            return stdouts

        first = outputs("1")
        assert json.loads(first[0])["assignments"]
        assert json.loads(first[2])["removed"]
        assert json.loads(first[4])["clean"]
        changed = json.loads(first[5])
        assert len(changed["new_unreachable"]) == len(changed["resolved_unreachable"]) == 6
        assert first[7].count(b", ") == len(closure.cell(*busiest)) - 1
        short = json.loads(first[8])
        assert short["counts"]["correct"] == len(json.loads(first[0])["assignments"])
        assert {d["context"] for d in short["policy_deltas"]} == {"qos"}
        assert first == outputs("2")
