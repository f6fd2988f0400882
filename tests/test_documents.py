import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from policymap import documents
from policymap.documents import (
    load_assignments,
    map_document,
    render_verify_text,
    verify_document,
)
from policymap.errors import AssignmentsError
from policymap.mapper import (
    AssignmentClass,
    Placements,
    map_policy,
    map_rules,
    require_reachable,
    verify_assignments,
)
from policymap.policy import (
    MeasurementValue,
    PolicyContext,
    PolicyRule,
    QosValue,
    SecurityValue,
    ServiceSet,
    bandwidth_text,
    parse_policy,
    value_from_text,
    value_to_text,
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


# Files of one bad entry, and with them the other files load_assignments rejects.
_BAD_ENTRIES = [
    '{"assignments": [{"device": "A"}]}',
    '[{"device": "A", "interface": "e0", "direction": "sideways",'
    ' "context": "security", "src": "Z1", "dst": "Z3", "value": "tcp/22"}]',
    '[{"device": "A", "interface": "e0", "direction": "inbound",'
    ' "context": "qos", "src": "Z1", "dst": "Z3", "value": "tcp/22 min 1/0MB/s"}]',
    '[{"device": "A", "interface": "e0", "direction": "inbound",'
    ' "context": "qos", "src": "Z1", "dst": "Z3", "value": "tcp/22 min 1e999999999MB/s"}]',
    '[{"device": "A", "interface": "e0", "direction": "inbound",'
    ' "context": "qos", "src": "Z1", "dst": "Z3", "value": "tcp/22 min \u0663MB/s"}]',
    *(
        '[{"device": "A", "interface": "e0", "direction": "inbound",'
        f' "context": "security", "src": "Z1", "dst": "Z3", "value": "{service}"}}]'
        for service in ("tcp/2_2", "tcp/+22", "tcp/ 22", "tcp/\u0662\u0662")
    ),
    '[{"device": "A", "interface": "e0", "direction": "inbound",'
    ' "context": "security", "src": "Z1", "dst": "Z3", "value": 5}]',
    '[{"device": ["A"], "interface": "e0", "direction": "inbound",'
    ' "context": "security", "src": "Z1", "dst": "Z3", "value": "tcp/22"}]',
    '[{"device": "A", "interface": "e0", "direction": "inbound",'
    ' "context": "security", "src": ["Z1"], "dst": "Z3", "value": "tcp/22"}]',
    "[5]",
    '[{"device": "\\ud800X", "interface": "e0", "direction": "inbound",'
    ' "context": "security", "src": "Z1", "dst": "Z3", "value": "tcp/22"}]',
]
_MALFORMED = [
    "{not json",
    "42",
    '{"assignments": 7}',
    *_BAD_ENTRIES,
    pytest.param("[" * 100000 + "]" * 100000, id="nested-100000-deep"),
]

_GOOD = {
    "device": "A", "interface": "e0", "direction": "inbound",
    "context": "security", "src": "Z1", "dst": "Z3", "value": "tcp/22",
}


class TestAssignmentsIO:
    def test_dict_round_trip(self):
        rule = PolicyRule("Z1", "Z3", SecurityValue(SSH))
        placements = Placements.of([(rule, ("A", "e0", "inbound"))])
        entries = map_document(placements)["assignments"]
        assert entries == [
            {"device": "A", "interface": "e0", "direction": "inbound",
             "context": "security", "src": "Z1", "dst": "Z3", "value": "tcp/22"}
        ]
        # An entry list is a read-only sequence; json.dumps takes it as a list.
        assert load_assignments(json.dumps(list(entries))) == placements

    @staticmethod
    def _entries(*values):
        return [
            {"device": device, "interface": "e0", "direction": "inbound",
             "context": context, "src": "Z1", "dst": "Z3", "value": value}
            for device, (context, value) in zip("ABCDEFGH", values)
        ]

    def test_each_distinct_value_parsed_once(self, monkeypatch):
        calls = []

        def counting(context, text):
            calls.append((context, text))
            return value_from_text(context, text)

        monkeypatch.setattr(documents, "value_from_text", counting)
        entries = self._entries(
            ("security", "tcp/22"), ("security", "tcp/22"), ("measurement", "tcp/22"),
            ("qos", "tcp/22 min 5MB/s"), ("security", "tcp/22"), ("qos", "tcp/22 min 5MB/s"),
        )
        loaded = load_assignments(json.dumps(entries))
        assert sorted(calls) == sorted({
            (PolicyContext.SECURITY, "tcp/22"),
            (PolicyContext.MEASUREMENT, "tcp/22"),
            (PolicyContext.QOS, "tcp/22 min 5MB/s"),
        })
        # One row per entry, in file order, over the three distinct rules.
        assert len(loaded.rules) == 3
        singles = [load_assignments(json.dumps([entry])) for entry in entries]
        assert [(loaded.rules[r], loaded.sites[s]) for r, s in loaded.rows] == [
            (single.rules[0], single.sites[0]) for single in singles
        ]

    def test_repeated_bad_value_fails_on_its_first_entry(self):
        entries = self._entries(
            ("security", "tcp/22"), ("security", "tcp/99999"), ("security", "tcp/99999")
        )
        with pytest.raises(AssignmentsError) as raised:
            load_assignments(json.dumps(entries))
        assert str(raised.value) == (
            f"bad assignment entry {entries[1]!r}: bad port range '99999'"
        )

    def test_bad_direction_names_the_value(self):
        (entry,) = self._entries(("security", "tcp/22"))
        entry["direction"] = "sideways"
        with pytest.raises(AssignmentsError) as raised:
            load_assignments(json.dumps([entry]))
        assert str(raised.value) == (
            f"bad assignment entry {entry!r}: 'sideways' is not a valid Direction"
        )

    def test_load_accepts_bare_list(self):
        text = (
            '[{"device": "A", "interface": "e0", "direction": "inbound",'
            ' "context": "security", "src": "Z1", "dst": "Z3", "value": "tcp/22"}]'
        )
        (loaded,) = load_assignments(text)
        assert loaded.device_id == "A"

    @pytest.mark.parametrize("text", _MALFORMED)
    def test_malformed_rejected(self, text):
        with pytest.raises(AssignmentsError):
            load_assignments(text)

    @staticmethod
    def _message(entries) -> str:
        with pytest.raises(AssignmentsError) as raised:
            load_assignments(json.dumps(entries))
        return str(raised.value)

    @pytest.mark.parametrize("text", _BAD_ENTRIES)
    def test_first_bad_entry_is_named_after_valid_ones(self, text):
        # Three valid entries share the bad one's rule or site, so that the
        # check of each distinct rule and site meets them first.
        payload = json.loads(text)
        (bad,) = payload if isinstance(payload, list) else payload["assignments"]
        shared = [dict(_GOOD)]
        if isinstance(bad, dict):
            for group in (documents._FIELDS[:3], documents._FIELDS[3:]):
                candidate = dict(_GOOD, **{f: bad[f] for f in group if f in bad})
                try:
                    load_assignments(json.dumps([candidate]))
                except AssignmentsError:
                    continue
                shared.append(candidate)
        valid = [shared[k % len(shared)] for k in range(3)]
        assert self._message([*valid, bad]) == self._message([bad])

    def test_two_bad_entries_name_the_first_in_file_order(self):
        bad_site = dict(_GOOD, device="B", direction="sideways")
        bad_rule = dict(_GOOD, value="tcp/99999")
        good = dict(_GOOD, device="C")
        assert self._message([good, bad_site, bad_rule, good]) == (
            f"bad assignment entry {bad_site!r}: 'sideways' is not a valid Direction"
        )
        assert self._message([bad_rule, good, bad_site]) == (
            f"bad assignment entry {bad_rule!r}: bad port range '99999'"
        )

    def test_same_placements_as_entry_by_entry(self):
        # Repeated entries, two value texts that parse equal, and extra keys.
        entries = [
            _GOOD,
            dict(_GOOD, value="tcp/22,tcp/23"),
            dict(_GOOD, device="B", value="tcp/22-23"),
            dict(_GOOD, note="extra", device="C"),
            _GOOD,
            dict(_GOOD, context="qos", value="tcp/22 min 5MB/s", direction="outbound"),
            dict(_GOOD, device="B", value="tcp/22-23", src="Z2"),
        ]
        singles = [load_assignments(json.dumps([entry])) for entry in entries]
        expected = Placements.of((single.rules[0], single.sites[0]) for single in singles)
        loaded = load_assignments(json.dumps({"assignments": entries}))
        assert loaded == expected
        # The two texts of tcp/22-23 are one rule, where it first appears.
        assert len(loaded.rules) == 4
        assert [r for r, _ in loaded.rows] == [0, 1, 1, 0, 0, 2, 3]


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

    def test_findings_order_is_the_assignment_order(self, diamond_model, diamond_astar):
        # Two rules on one pair differ only in value; one entry is repeated.
        # Findings sort by (context, src, dst, device, interface,
        # direction), and those that tie keep their order in the file.
        ssh, http = PolicyRule("Z1", "Z3", SecurityValue(SSH)), PolicyRule(
            "Z1", "Z3", SecurityValue(ServiceSet.from_ranges([("tcp", 80, 80)]))
        )
        placed = [
            (http, ("F", "e1", "inbound")),
            (ssh, ("A", "e0", "inbound")),
            (http, ("A", "e0", "inbound")),
            (ssh, ("F", "e1", "inbound")),
            (http, ("A", "e1", "outbound")),
            (ssh, ("A", "e0", "inbound")),
            (ssh, ("A", "e0", "outbound")),
        ]
        report = verify_assignments(
            PolicyContext.SECURITY, [ssh], diamond_astar, diamond_model, Placements.of(placed)
        )
        findings = report.findings
        # One finding per entry, in the order given.
        assert [(findings.rules[r], findings.sites[s]) for r, s in findings.rows] == placed
        assert len(report.classes) == len(placed)
        expected = sorted(
            ((rule, site, cls) for (rule, site), cls in zip(placed, report.classes)),
            key=lambda f: (f[0].context.value, f[0].src, f[0].dst, *f[1]),
        )
        assert [
            (e["device"], e["interface"], e["direction"], e["value"], e["classification"])
            for e in verify_document(report)["findings"]
        ] == [
            (*site, value_to_text(rule.value), cls.value) for rule, site, cls in expected
        ]
        assert [e["value"] for e in verify_document(report)["findings"][:3]] == [
            "tcp/22", "tcp/80", "tcp/22"
        ]

    def test_by_device_tree_shape(self, diamond_model, diamond_astar):
        rule = PolicyRule("Z1", "Z3", SecurityValue(SSH))
        placements = require_reachable(map_rules([rule], diamond_astar, diamond_model))
        tree = map_document(placements)["by_device"]
        assert tree["F"]["e1"]["inbound"] == ["security Z1 -> Z3 : tcp/22"]

    def test_by_device_lines_parse_back(self, diamond_model, diamond_astar):
        rules = [
            PolicyRule("Z1", "Z3", SecurityValue(SSH)),
            PolicyRule("Z1", "Z3", QosValue(Fraction(1, 3), SSH)),
            PolicyRule("Z2", "Z4", MeasurementValue(SSH)),
        ]
        placements = require_reachable(map_rules(rules, diamond_astar, diamond_model))
        lines = {
            line
            for interfaces in map_document(placements)["by_device"].values()
            for directions in interfaces.values()
            for rule_lines in directions.values()
            for line in rule_lines
        }
        assert "measure Z2 -> Z4 : collect tcp/22" in lines
        assert set(parse_policy("\n".join(sorted(lines))).rules) == set(rules)


# Any code point, lone surrogates included, weighted towards the ones a
# JSON writer must escape or must leave alone.
_TEXT = st.text(
    st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028éZ\ud800\U0001f600')
    | st.characters(blacklist_categories=()),
    max_size=8,
)
_DOCUMENTS = st.recursive(
    st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _entry_lists(draw):
    """An entry list of either shape over drawn rule and site tables, with
    repeated rows or none."""
    fields = draw(st.lists(st.tuples(_TEXT, _TEXT, _TEXT, _TEXT), min_size=1, max_size=2))
    # The rules only order the rows; the entries read fields.
    rules = [PolicyRule(f"Z{k}", "Z", SecurityValue(SSH)) for k in range(len(fields))]
    sites = draw(st.lists(st.tuples(_TEXT, _TEXT, _TEXT), min_size=1, max_size=2))
    rows = draw(st.lists(
        st.tuples(st.integers(0, len(rules) - 1), st.integers(0, len(sites) - 1)), max_size=6
    ))
    classes = draw(st.none() | st.lists(
        st.sampled_from(AssignmentClass), min_size=len(rows), max_size=len(rows)
    ))
    return documents.Entries(Placements(rules, sites, rows), fields, classes)


def _plain(value):
    """value with each entry list made a list."""
    if isinstance(value, documents.Entries):
        return list(value)
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


class TestToJson:
    """to_json writes what json.dumps(indent=2, sort_keys=True,
    ensure_ascii=False) writes, plus a newline."""

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(_TEXT, _DOCUMENTS, max_size=4))
    def test_equals_json_dumps(self, document):
        expected = json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        assert documents.to_json(document) == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.dictionaries(_TEXT, _TEXT | st.integers(), max_size=1),
        _TEXT,
        _entry_lists(),
    )
    def test_entry_lists_equal_json_dumps_of_their_lists(self, document, key, entries):
        # The one list at depth 1 and inside nested dicts.
        document["entries"] = entries
        document["nested"] = {key: {key: entries}}
        expected = json.dumps(_plain(document), indent=2, sort_keys=True, ensure_ascii=False)
        assert documents.to_json(document) == expected + "\n"
        assert entries == list(entries) == entries[:] and entries == tuple(entries)

    @pytest.mark.parametrize("value", [1.5, None, (1,), {1: "a"}, {"a": {"b": [object()]}}])
    def test_other_types_raise_type_error(self, value):
        with pytest.raises(TypeError):
            documents.to_json({"a": value})
