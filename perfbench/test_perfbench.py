"""Tests of the benchmark's own code: generators, oracle, spans, tails.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import oracle  # noqa: E402
import workloads  # noqa: E402
from policymap import cli  # noqa: E402
from policymap.closure import right_iterate  # noqa: E402
from policymap.mapper import map_policy  # noqa: E402
from policymap.policy import PolicyContext, parse_policy  # noqa: E402
from policymap.topology import (  # noqa: E402
    adjacency_matrix,
    build_model,
    parse_topology,
    transitivity_matrix,
)
from run import tail  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

SMALL_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3), (1, 0))


def small_workload(seed: int) -> workloads.Workload:
    """A five-zone mesh with one closed zone, rules on every pair, one dropped firewall."""
    rng = random.Random(seed)
    network = workloads.mesh(rng, 5, SMALL_EDGES)
    closed = network.zones[0][0]
    network = network.set_transitive(closed, False)
    zones = [z for z, _ in network.zones]
    rules = tuple(
        workloads.Rule(ctx, a, b, rng.choice(workloads.VALUES[ctx]))
        for a in zones for b in zones if a != b for ctx in workloads.CONTEXTS
    )
    dropped = network.firewalls[0][0]
    return workloads.Workload(
        "small", network, rules, ("--drop-device", dropped), network.drop_firewall(dropped),
        workloads.graphml_text(network, rng), workloads.policy_text(network, rules, rng),
    )


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_generators_are_deterministic_per_seed(name):
    assert workloads.generate(name, 5) == workloads.generate(name, 5)
    other = workloads.generate(name, 6)
    assert other.graphml != workloads.generate(name, 5).graphml
    assert other.policy != workloads.generate(name, 5).policy


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_fault_injection_is_deterministic_per_seed(name):
    workload = workloads.generate(name, 5)
    first = oracle.expected_outputs(workload, random.Random(1))
    assert first == oracle.expected_outputs(workload, random.Random(1))
    classes = sorted(f[-1] for f in first.faulted.findings)
    assert classes == sorted(oracle.FAULT_CLASSES * oracle.FAULTS_PER_CLASS)
    # The faults leave measurement pairs uncollected, so verify has deltas
    # to report; the map itself has none and over-provisions QoS pairs.
    assert first.faulted.deltas and not first.clean.deltas
    assert {d[0] for d in first.faulted.deltas} == {"measurement"}
    assert first.clean.overprovisioned


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_reference_equals_right_iterate_map(seed):
    workload = small_workload(seed)
    policy = parse_policy(workload.policy)
    model = build_model(parse_topology(workload.graphml.encode()), policy.transitivity)
    astar = right_iterate(adjacency_matrix(model), transitivity_matrix(model))
    mapped = sorted(
        (ctx.value, a.rule.src, a.rule.dst, a.device_id, a.interface, a.direction.value)
        for ctx in PolicyContext
        for a in map_policy(ctx, policy.rules_for(ctx), astar, model)
    )
    ref = oracle.reference(workload.network, workload.rules)
    assert mapped == sorted(entry[:6] for entry in ref.entries)
    assert ref.paths == sum(
        len(astar.cell(i, j)) for i in range(model.n) for j in range(model.n) if i != j
    )


def test_cli_outputs_pass_the_oracle_checks(tmp_path):
    workload = small_workload(4)
    expected = oracle.expected_outputs(workload, random.Random(4))
    files = {
        "topology": workload.graphml, "policy": workload.policy,
        "faulted": oracle.assignments_document(expected.faulted.entries),
        "clean": oracle.assignments_document(expected.map_entries),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    common = [str(tmp_path / "topology"), str(tmp_path / "policy")]

    def run(*argv):
        out = tmp_path / "out.json"
        code = cli.main([*argv[:1], *common, *argv[1:], "--format", "structured", "--out", str(out)])
        return code, json.loads(out.read_text())

    code, doc = run("map")
    assert code == 0 and oracle.check_map(doc, expected)
    code, doc = run("verify", str(tmp_path / "faulted"))
    assert code == 3 and oracle.check_verify(doc, expected.faulted)
    for key in ("policy_deltas", "overprovisioned"):
        wrong = json.loads(json.dumps(doc))
        wrong[key][0]["derived"] = "tcp/1"
        assert not oracle.check_verify(wrong, expected.faulted)
        wrong[key].pop(0)
        assert not oracle.check_verify(wrong, expected.faulted)
    code, doc = run("verify", str(tmp_path / "clean"))
    assert code == 0 and oracle.check_verify(doc, expected.clean)
    code, doc = run("whatif", *workload.whatif_args)
    assert code == 0 and oracle.check_whatif(doc, expected)
    assert expected.removed  # the dropped firewall carried traffic


def test_oracle_checks_reject_a_wrong_map():
    workload = small_workload(4)
    expected = oracle.expected_outputs(workload, random.Random(4))
    doc = json.loads(oracle.assignments_document(expected.map_entries))
    assert oracle.check_map(doc, expected)
    doc["assignments"].pop()
    assert not oracle.check_map(doc, expected)


def test_tracer_records_parents_commands_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.command = "0:map"
    with tracer.span("cli.map"):
        with tracer.span("closure.right_iterate"):
            tracer.count("closure.paths", 7)
        with tracer.span("documents.to_json"):
            pass
    root, closure, to_json = tracer.spans
    assert (root["parent"], closure["parent"], to_json["parent"]) == (None, 0, 0)
    assert {s["command"] for s in tracer.spans} == {"0:map"}
    assert closure["counts"] == {"closure.paths": 7}
    assert self_times(tracer.spans) == {0: 3.0, 1: 1.0, 2: 1.0}


def test_self_times_on_a_nested_tree():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("cli.verify"):  # 0 .. 9
        with tracer.span("closure.right_iterate"):  # 1 .. 2
            pass
        with tracer.span("mapper.verify_assignments"):  # 3 .. 6
            with tracer.span("documents.load_assignments"):  # 4 .. 5
                pass
        with tracer.span("documents.to_json"):  # 7 .. 8
            pass
    with tracer.span("cli.map"):  # 10 .. 11
        pass
    assert self_times(tracer.spans) == {0: 4.0, 1: 1.0, 2: 2.0, 3: 1.0, 4: 1.0, 5: 1.0}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 51)]
    assert tail(values) == {"value": 40.0, "percentile": 80.0, "samples": 50}
    assert tail(values[:40]) == {"value": 30.0, "percentile": 75.0, "samples": 40}


def test_tail_is_unavailable_below_the_75th_percentile():
    values = [float(v) for v in range(1, 40)]
    assert tail(values) == {"value": None, "percentile": None, "samples": 39}
    assert tail(values[:11]) == {"value": None, "percentile": None, "samples": 11}
    assert tail(values[:5]) == {"value": None, "percentile": None, "samples": 5}
