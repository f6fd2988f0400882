"""The workload process: a closed loop of policymap commands, one client.

Run by ``run.py`` as ``python3 perfbench/worker.py JOB RESULT`` with
``src`` on ``PYTHONPATH``.  JOB is a JSON file naming each command
variant's argv and output file, the loop length and whether to trace.
The worker cycles map -> verify -> whatif, calling ``policymap.cli.main``
in-process, and hashes every output document outside the timed region.
The garbage collector stays on; a collection before each command starts
it from the state a fresh process would have.
Before each command it times ``calibrate.probe`` so that the command's
time can be scaled to a reference machine speed.  It starts a cycle only
while the cycle just finished would still fit in the loop's time (command
time at the reference speed), but always runs at least ``min_cycles``
cycles.  With tracing on, each
untraced cycle is followed by the same cycle through ``traced_command``,
which calls the stages the CLI calls, each inside a span: the modules'
public functions, and the CLI's own mapping and device-drop helpers.

RESULT receives every sample, the loop's wall time, the process's peak
resident set size and, when traced, the spans.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from policymap import cli, documents
from policymap.closure import brute_force_paths, right_iterate
from policymap.mapper import DirectionConvention, MeasurementStrategy, verify_assignments
from policymap.policy import PolicyContext, parse_policy
from policymap.topology import adjacency_matrix, build_model, parse_topology, transitivity_matrix

import calibrate
from spans import Tracer


def variants_of_cycle(cycle: int) -> list[str]:
    """The commands of one cycle; verify alternates its two inputs."""
    return ["map", "verify:faulted" if cycle % 2 == 0 else "verify:clean", "whatif"]


def digest(path: str) -> str | None:
    try:
        with open(path, "rb") as handle:
            return hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None


def _compile(tr: Tracer, topology, transitivity, firewall_zones: bool, count: bool):
    with tr.span("topology.build_model"):
        model = build_model(topology, transitivity, add_firewall_zones=firewall_zones)
        if count:
            tr.count("topology.zones", model.n)
            tr.count("topology.directed_devices", sum(map(len, model.conduits.values())))
    with tr.span("topology.matrices"):
        adjacency, transitivity_m = adjacency_matrix(model), transitivity_matrix(model)
    with tr.span("closure.right_iterate"):
        astar = right_iterate(adjacency, transitivity_m)
        if count:
            sizes = [len(astar.cell(i, j)) for i in range(model.n) for j in range(model.n) if i != j]
            tr.count("closure.paths", sum(sizes))
            tr.count("closure.nonempty_cells", sum(1 for s in sizes if s))
            tr.count("closure.max_cell_paths", max(sizes, default=0))
    return model, astar


def _parse_inputs(tr: Tracer, args):
    topology_bytes = Path(args.topology).read_bytes()
    policy_text = Path(args.policy).read_text(encoding="utf-8")
    with tr.span("topology.parse_topology"):
        topology = parse_topology(topology_bytes)
    with tr.span("policy.parse_policy"):
        policy_doc = parse_policy(policy_text)
        tr.count("policy.rules", len(policy_doc.rules))
    return topology, policy_doc


def _emit(tr: Tracer, document: dict, out: str) -> None:
    with tr.span("documents.to_json"):
        text = documents.to_json(document)
        tr.count("documents.json_bytes", len(text.encode("utf-8")))
    with open(out, "w", encoding="utf-8") as handle:
        handle.write(text)


def traced_command(tr: Tracer, argv: list[str]) -> int:
    """One command through the same stages ``cli.cmd_*`` runs, each in a span.

    The mapping and whatif's device drop go through the CLI's own helpers,
    so the traced pipeline cannot drift from the one ``cli.main`` runs.  The
    root span ``cli.<command>`` also covers argument parsing, file I/O and
    the device drop, which is where the CLI's own time goes.
    """
    with tr.span(f"cli.{argv[0]}"):
        args = cli.build_parser().parse_args(argv)
        convention = DirectionConvention(args.direction_convention)
        strategy = MeasurementStrategy(args.measurement_strategy)
        topology, policy_doc = _parse_inputs(tr, args)
        if args.command == "map":
            model, astar = _compile(tr, topology, policy_doc.transitivity, args.firewall_zones, True)
            with tr.span("mapper.map_policy"):
                assignments = cli._map_all(policy_doc, astar, model, convention, strategy)
                tr.count("mapper.assignments", len(assignments))
            with tr.span("documents.map_document"):
                document = documents.map_document(assignments)
            _emit(tr, document, args.out)
            return 0
        if args.command == "verify":
            model, astar = _compile(tr, topology, policy_doc.transitivity, args.firewall_zones, False)
            assignments_text = Path(args.assignments).read_text(encoding="utf-8")
            with tr.span("documents.load_assignments"):
                existing = documents.load_assignments(assignments_text)
            with tr.span("mapper.verify_assignments"):
                reports = [
                    verify_assignments(
                        ctx, policy_doc.rules_for(ctx), astar, model,
                        [a for a in existing if a.rule.context is ctx],
                    )
                    for ctx in PolicyContext
                ]
                for cls in ("incorrect_firewall", "incorrect_interface", "incorrect_direction"):
                    tr.count(f"mapper.findings_{cls}", sum(r.counts[cls] for r in reports))
                tr.count("mapper.deltas", sum(len(r.deltas) for r in reports))
            with tr.span("documents.verify_document"):
                report = documents.merge_reports(reports)
                document = documents.verify_document(report)
            _emit(tr, document, args.out)
            return 0 if report.clean else 3
        # whatif
        base_model, base_astar = _compile(
            tr, topology, policy_doc.transitivity, args.firewall_zones, False
        )
        with tr.span("mapper.map_policy"):
            before = cli._map_tolerant(policy_doc, base_astar, base_model, convention, strategy)
        transitivity = dict(policy_doc.transitivity)
        transitivity.update({zone: True for zone in args.set_transitive})
        transitivity.update({zone: False for zone in args.set_non_transitive})
        changed_model, changed_astar = _compile(
            tr, cli._drop_devices(topology, args.drop_device), transitivity, args.firewall_zones, False
        )
        with tr.span("mapper.map_policy"):
            after = cli._map_tolerant(policy_doc, changed_astar, changed_model, convention, strategy)
        with tr.span("documents.diff_document"):
            document = documents.diff_document(*before, *after)
        _emit(tr, document, args.out)
        return 0


def run_command(job: dict, variant: str, tr: Tracer | None) -> dict:
    spec = job["commands"][variant]
    probe_s = calibrate.probe()
    # Start every command from a collected heap, as a fresh CLI process
    # would, instead of with the collector debt the previous one left.
    gc.collect()
    started = time.perf_counter()
    try:
        code = cli.main(spec["argv"]) if tr is None else traced_command(tr, spec["argv"])
        error = None
    except Exception as exc:  # a crash is a failed command, not the end of the run
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    return {"variant": variant, "code": code, "seconds": seconds, "probe_s": probe_s,
            "sha256": digest(spec["out"]), "error": error,
            "command": tr.command if tr else None}


def main(job_path: str, result_path: str) -> None:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    tracer = Tracer() if job["trace"] else None
    samples = [dict(run_command(job, "map", None), cycle=None)]  # warm-up
    if tracer:
        # The DFS oracle runs on the model the map command builds.
        oracle_model = build_model(
            parse_topology(Path(job["topology"]).read_bytes()),
            parse_policy(Path(job["policy"]).read_text(encoding="utf-8")).transitivity,
        )

    # The loop's length is counted in command time at the reference speed,
    # so that a slow spell of the machine does not change the sample count.
    cycle, spent, last, started = 0, 0.0, 0.0, time.perf_counter()
    while cycle < job["min_cycles"] or spent + last <= job["seconds"]:
        first = len(samples)
        for tr in ([None, tracer] if tracer else [None]):
            for variant in variants_of_cycle(cycle):
                if tr:
                    tr.command = f"{cycle}:{variant}"
                samples.append(dict(run_command(job, variant, tr), cycle=cycle))
        if tracer:
            tracer.command = f"{cycle}:oracle"
            with tracer.span("closure.oracle_dfs"):
                brute_force_paths(oracle_model)
        last = sum(
            s["seconds"] * calibrate.REFERENCE_S / s["probe_s"] for s in samples[first:]
        )
        spent += last
        cycle += 1
    loop_seconds = time.perf_counter() - started
    after = [s["probe_s"] for s in samples[1:]] + [calibrate.probe()]
    for sample, probe_s in zip(samples, after):
        sample["probe_after_s"] = probe_s

    result = {
        "samples": samples,
        "loop_seconds": loop_seconds,
        "cycles": cycle,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans if tracer else [],
    }
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
