"""Arbitrary input files through ``cli.main``: an exit code, never a traceback.

Each input file in turn is replaced by arbitrary bytes or by a mutation
of a file under tests/data, the others staying valid.  Whatever the input,
main returns 0, 1, 2 or 3; exits 1 and 2 print exactly one ``error: ``
line to stderr, and exits 0 and 3 print nothing there.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from policymap.cli import main

from conftest import DATA

DIAMOND = DATA / "diamond.graphml"
POLICY = DATA / "diamond_mixed.policy"
FUZZ = settings(max_examples=60, deadline=None)

COMMANDS = (
    ("map",),
    ("verify", "{assignments}"),
    ("whatif", "--drop-device", "A", "--set-non-transitive", "Z2"),
    ("paths", "Z1", "Z3"),
)


def _apply(original: bytes, edits) -> bytes:
    data = bytearray(original)
    for at, op, chunk in edits:
        at = min(at, len(data))
        if op == "replace":
            data[at:at + len(chunk)] = chunk
        elif op == "insert":
            data[at:at] = chunk
        else:
            del data[at:at + len(chunk) + 1]
    return bytes(data)


def mutations(*names: str):
    """Byte-level edits of the named tests/data files."""
    return st.sampled_from(names).flatmap(
        lambda name: st.lists(
            st.tuples(
                st.integers(0, len((DATA / name).read_bytes())),
                st.sampled_from(("replace", "insert", "delete")),
                st.binary(max_size=6),
            ),
            max_size=6,
        ).map(lambda edits, name=name: _apply((DATA / name).read_bytes(), edits))
    )


def _map_of(policy: Path) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "map.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["map", str(DIAMOND), str(policy), "--format", "structured",
                         "--out", str(out)]) == 0
        return out.read_text(encoding="utf-8")


VALID_ASSIGNMENTS = _map_of(POLICY)
MAP_ENTRIES = json.loads(VALID_ASSIGNMENTS)["assignments"]
POLICIES = sorted(p.name for p in DATA.glob("*.policy"))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
# Map entries with some fields replaced, so that most of them get past the
# shape checks and into the value grammar and the audit.
field_values = st.text(max_size=12) | st.sampled_from(
    ("A", "G", "e0", "e1", "zz", "inbound", "outbound", "security", "qos", "measurement",
     "Z1", "Z3", "Z4", "Z9", "tcp/22", "udp/any", "none", "tcp/80 min 50MB/s",
     "tcp/80 min 1/3MB/s", "udp/53 min 0MB/s")
)
edited_entries = st.lists(
    st.tuples(
        st.sampled_from(MAP_ENTRIES),
        st.dictionaries(
            st.sampled_from(sorted(MAP_ENTRIES[0])), field_values | json_values, max_size=3
        ),
    ).map(lambda pair: {**pair[0], **pair[1]}),
    max_size=8,
)
# The map with each qos entry's bandwidth over a 2201-digit denominator:
# parallel paths multiply the denominators of the derived sum.
long_denominators = st.lists(
    st.sampled_from("1379"), min_size=len(MAP_ENTRIES), max_size=len(MAP_ENTRIES)
).map(
    lambda digits: [
        {**entry, "value": f"tcp/80 min 1/1{'0' * 2199}{digit}MB/s"}
        if entry["context"] == "qos" else entry
        for entry, digit in zip(MAP_ENTRIES, digits)
    ]
)
assignments_json = st.one_of(
    json_values,
    edited_entries,
    st.one_of(edited_entries, long_denominators).map(lambda entries: {"assignments": entries}),
).map(lambda value: json.dumps(value).encode("utf-8"))


def _check(topology: bytes, policy: bytes, assignments: bytes, command) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, content in (("net.graphml", topology), ("net.policy", policy),
                              ("assignments.json", assignments)):
            paths[name] = Path(tmp) / name
            paths[name].write_bytes(content)
        verb, *rest = command
        argv = [verb, str(paths["net.graphml"]), str(paths["net.policy"]),
                *(str(paths["assignments.json"]) if a == "{assignments}" else a for a in rest)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), argv
    if code in (1, 2):
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        assert err.getvalue() == ""


@FUZZ
@given(
    topology=st.binary(max_size=200) | mutations("diamond.graphml"),
    command=st.sampled_from(COMMANDS),
)
def test_arbitrary_topology(topology, command):
    _check(topology, POLICY.read_bytes(), VALID_ASSIGNMENTS.encode("utf-8"), command)


@FUZZ
@given(
    policy=st.binary(max_size=200) | mutations(*POLICIES),
    command=st.sampled_from(COMMANDS),
)
def test_arbitrary_policy(policy, command):
    _check(DIAMOND.read_bytes(), policy, VALID_ASSIGNMENTS.encode("utf-8"), command)


@FUZZ
@given(assignments=assignments_json | st.binary(max_size=200))
def test_arbitrary_assignments(assignments):
    _check(DIAMOND.read_bytes(), POLICY.read_bytes(), assignments, ("verify", "{assignments}"))
