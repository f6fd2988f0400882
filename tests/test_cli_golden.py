"""Byte-identity of the CLI over a fixed matrix of cases.

Each case runs policymap in-process and is recorded as the sha256 of its
exit code, stdout and stderr.  The matrix is every tests/data policy and
one with unreachable rules, on the diamond, under every direction
convention, measurement strategy and firewall-zone setting, in both
formats, for map, paths of two zone pairs, four what-ifs, and verify of
the structured map and of a perturbed copy: 5 x 8 x 2 x 9 = 720 cases.

cli_golden.json holds the recorded digests.  A refactor must leave them
unchanged; when an output change is intended, rewrite the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and name the changed cases where the change is described.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import sys
from pathlib import Path

from policymap.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
POLICIES = (
    "diamond_mixed.policy", "diamond_ssh.policy", "diamond_ssh_z4closed.policy", "empty.policy"
)
# Z1-Z3 and Z2-Z4 need a transitive zone that this policy leaves closed.
UNREACHABLE = (
    "zone Z4 non-transitive\n"
    "security Z1 -> Z2 : tcp/22\n"
    "qos Z1 -> Z3 : tcp/80 min 10MB/s\n"
    "measure Z2 -> Z4 : collect udp/any\n"
)
OPTION_SETS = [
    ("--direction-convention", convention, "--measurement-strategy", strategy, *zones)
    for convention, strategy, zones in itertools.product(
        ("ingress-inbound", "egress-outbound"), ("all", "first"), ((), ("--firewall-zones",))
    )
]
FORMATS = ("text", "structured")
WHATIFS = (
    ("--drop-device", "A"),
    ("--set-non-transitive", "Z4"),
    ("--set-transitive", "Z4", "--drop-device", "E"),
    ("--drop-device", "C", "--drop-device", "D"),
)
# Appended to every perturbed map; the first entry's direction is also flipped.
SPURIOUS = {
    "context": "security", "device": "A", "direction": "outbound",
    "dst": "Z3", "interface": "e1", "src": "Z1", "value": "tcp/22",
}


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _perturbed(map_text: str) -> str:
    doc = json.loads(map_text or '{"assignments": []}')
    entries = doc["assignments"]
    if entries:
        entries[0]["direction"] = "inbound" if entries[0]["direction"] == "outbound" else "outbound"
    entries.append(SPURIOUS)
    return json.dumps(doc)


def digests(workdir: Path) -> dict[str, str]:
    """Every case's digest, run with workdir as the current directory.

    Inputs are copied there and named relatively, so no message depends on
    where the directory is.
    """
    shutil.copy(DATA / "diamond.graphml", workdir)
    for policy in POLICIES:
        shutil.copy(DATA / policy, workdir)
    (workdir / "unreachable.policy").write_text(UNREACHABLE)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        out = {}
        for policy, options in itertools.product(
            (*POLICIES, "unreachable.policy"), OPTION_SETS
        ):
            common = ["diamond.graphml", policy, *options]
            _, map_text, _ = _run(["map", *common, "--format", "structured"])
            Path("map.json").write_text(map_text)
            Path("perturbed.json").write_text(_perturbed(map_text))
            commands = [
                ["map", *common],
                ["paths", *common, "Z1", "Z3"],
                ["paths", *common, "Z4", "fwz-C"],
                *(["whatif", *common, *change] for change in WHATIFS),
                ["verify", *common, "map.json"],
                ["verify", *common, "perturbed.json"],
            ]
            for command, fmt in itertools.product(commands, FORMATS):
                argv = [*command, "--format", fmt]
                record = json.dumps(_run(argv)).encode("utf-8")
                out[" ".join(argv)] = hashlib.sha256(record).hexdigest()
        return out
    finally:
        os.chdir(cwd)


def test_cli_output_matches_recorded_digests(tmp_path):
    recorded = json.loads(GOLDEN.read_text())
    current = digests(tmp_path)
    assert len(current) == 720
    differing = sorted(
        key for key in set(recorded) | set(current) if recorded.get(key) != current.get(key)
    )
    assert not differing, f"{len(differing)} cases differ:\n" + "\n".join(differing)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        table = digests(Path(scratch))
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}", file=sys.stderr)
