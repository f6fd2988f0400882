"""The benchmark's traced pipeline writes what the CLI writes.

perfbench/worker.py re-runs each command stage by stage through the CLI's
own helpers (``cli._map_all``, ``cli._map_tolerant``, ``cli._drop_devices``,
``documents.diff_document``); these tests hold those helpers to the shapes
it calls them with.
"""

import json
import sys
from pathlib import Path

import pytest

from policymap import cli

from conftest import data_path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import worker  # noqa: E402
from spans import Tracer  # noqa: E402

DIAMOND = str(data_path("diamond.graphml"))
POLICY_MIXED = str(data_path("diamond_mixed.policy"))


@pytest.mark.parametrize(
    "command, options",
    [
        ("map", ()),
        ("verify", ("{map}",)),
        ("whatif", ("--drop-device", "A")),
        # Cuts Z1 off: two rules become unreachable.
        ("whatif", ("--drop-device", "A", "--drop-device", "B", "--drop-device", "E")),
    ],
)
def test_traced_command_writes_the_cli_output(tmp_path, capsys, command, options):
    map_path = tmp_path / "map.json"
    assert cli.main(["map", DIAMOND, POLICY_MIXED, "--format", "structured",
                     "--out", str(map_path)]) == 0
    options = [str(map_path) if o == "{map}" else o for o in options]

    def argv(out):
        return [command, DIAMOND, POLICY_MIXED, *options,
                "--format", "structured", "--out", str(out)]

    tracer = Tracer()
    tracer.command = command
    assert worker.traced_command(tracer, argv(tmp_path / "traced.json")) == 0
    assert cli.main(argv(tmp_path / "cli.json")) == 0
    assert capsys.readouterr().err == ""
    traced = (tmp_path / "traced.json").read_bytes()
    assert traced == (tmp_path / "cli.json").read_bytes()
    assert tracer.spans
    if "E" in options:
        assert len(json.loads(traced)["new_unreachable"]) == 2
