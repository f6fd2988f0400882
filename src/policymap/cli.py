"""Command-line front end: parse, model, close, map, verify, what-if.

Exit codes: 0 success (for verify: nothing misallocated and no policy
deltas), 1 malformed or inconsistent input, 2 a rule whose zone pair has
no valid device path, 3 verification found problems.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from . import documents
from .closure import edit_closure, right_iterate
from .errors import PolicymapError, UnknownDevice, UnreachablePair
from .mapper import (
    DirectionConvention,
    MeasurementStrategy,
    Placements,
    map_rules,
    require_reachable,
    verify_assignments,
)
from .policy import PolicyContext, PolicyDocument, load_policy
from .topology import (
    NetworkTopology,
    TopologyNode,
    ZoneConduitModel,
    adjacency_matrix,
    build_model,
    check_transitivity,
    load_topology,
    transitivity_matrix,
)


class _Failure(Exception):
    """Unreadable or malformed input, or unwritable output: exit 1."""


def _read(path: str, load):
    """load(path), with unreadable or malformed input as a one-line failure."""
    try:
        return load(path)
    except (PolicymapError, UnicodeDecodeError) as exc:
        raise _Failure(f"{path}: {type(exc).__name__}: {exc}") from exc
    except OSError as exc:
        raise _Failure(str(exc)) from exc


def _read_inputs(args) -> tuple[NetworkTopology, PolicyDocument]:
    return _read(args.topology, load_topology), _read(args.policy, load_policy)


def _compile(topology: NetworkTopology, transitivity: dict, firewall_zones: bool):
    model = build_model(topology, transitivity, add_firewall_zones=firewall_zones)
    astar = right_iterate(adjacency_matrix(model), transitivity_matrix(model))
    return model, astar


def _map_tolerant(policy_doc, astar, model, convention, strategy):
    """Map every rule: map_rules' placements and its rules with no valid path.

    Rules are taken context by context, each in file order.
    """
    rules = [rule for ctx in PolicyContext for rule in policy_doc.rules_for(ctx)]
    return map_rules(rules, astar, model, convention, strategy)


def _map_all(
    policy_doc: PolicyDocument,
    astar,
    model: ZoneConduitModel,
    convention: DirectionConvention,
    strategy: MeasurementStrategy,
) -> Placements:
    """Map every rule; raises UnreachablePair for the first unreachable one."""
    return require_reachable(_map_tolerant(policy_doc, astar, model, convention, strategy))


def _emit(text: str, out_path: str | None) -> None:
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _Failure(str(exc)) from exc


def _render(document: dict, renderer, fmt: str) -> str:
    if fmt == "structured":
        return documents.to_json(document)
    return renderer(document)


def cmd_map(args) -> int:
    topology, policy_doc = _read_inputs(args)
    model, astar = _compile(topology, policy_doc.transitivity, args.firewall_zones)
    placements = _map_all(
        policy_doc, astar, model,
        DirectionConvention(args.direction_convention),
        MeasurementStrategy(args.measurement_strategy),
    )
    document = documents.map_document(placements)
    _emit(_render(document, documents.render_map_text, args.format), args.out)
    return 0


def cmd_verify(args) -> int:
    topology, policy_doc = _read_inputs(args)
    model, astar = _compile(topology, policy_doc.transitivity, args.firewall_zones)
    existing = _read(
        args.assignments,
        lambda path: documents.load_assignments(Path(path).read_text(encoding="utf-8")),
    )

    report = documents.merge_reports([
        verify_assignments(ctx, policy_doc.rules_for(ctx), astar, model, existing.select(ctx))
        for ctx in PolicyContext
    ])
    document = documents.verify_document(report)
    _emit(_render(document, documents.render_verify_text, args.format), args.out)
    return 0 if report.clean else 3


def cmd_paths(args) -> int:
    if args.format == "structured":
        raise _Failure("paths has text output only; --format structured is not supported")
    topology, policy_doc = _read_inputs(args)
    model, astar = _compile(topology, policy_doc.transitivity, args.firewall_zones)
    i = model.zone_index(args.src)
    j = model.zone_index(args.dst)
    _emit(astar.cell(i, j).text() + "\n", args.out)
    return 0


def _firewalls(topology: NetworkTopology, device_ids: Sequence[str]) -> list[TopologyNode]:
    """The firewall nodes named device_ids; raises UnknownDevice for the first unknown name."""
    by_name = {n.name: n for n in topology.firewalls()}
    for device_id in device_ids:
        if device_id not in by_name:
            raise UnknownDevice(f"no firewall named {device_id!r} in the topology")
    return [by_name[device_id] for device_id in device_ids]


def _drop_devices(topology: NetworkTopology, device_ids: Sequence[str]) -> NetworkTopology:
    """The topology without the named firewalls' links.  Their nodes stay, so
    each keeps its --firewall-zones management zone, with no device attached."""
    dropped_node_ids = {node.node_id for node in _firewalls(topology, device_ids)}
    links = tuple(l for l in topology.links if l.firewall not in dropped_node_ids)
    return NetworkTopology(topology.nodes, links)


def _whatif_runs(args, topology: NetworkTopology, policy_doc: PolicyDocument):
    """map_rules' results before and then after args' change, from one
    compile: the edited closure maps over the base model, whose zones a
    dropped firewall keeps.  No closure outlives its mapping."""
    convention = DirectionConvention(args.direction_convention)
    strategy = MeasurementStrategy(args.measurement_strategy)
    model, astar = _compile(topology, policy_doc.transitivity, args.firewall_zones)
    before = _map_tolerant(policy_doc, astar, model, convention, strategy)
    dropped = {node.name for node in _firewalls(topology, args.drop_device)}
    changed = {**policy_doc.transitivity, **dict.fromkeys(args.set_transitive, True)}
    changed.update(dict.fromkeys(args.set_non_transitive, False))
    check_transitivity({node.name for node in topology.zones()}, changed)
    after = [changed.get(zone.name, False) for zone in model.zones]
    astar = edit_closure(astar, [zone.transitive for zone in model.zones], after, dropped)
    return (*before, *_map_tolerant(policy_doc, astar, model, convention, strategy))


def cmd_whatif(args) -> int:
    topology, policy_doc = _read_inputs(args)
    document = documents.diff_document(*_whatif_runs(args, topology, policy_doc))
    _emit(_render(document, documents.render_diff_text, args.format), args.out)
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("topology", help="GraphML network topology file")
    parser.add_argument("policy", help="policy file (zone transitivity and rules)")
    parser.add_argument(
        "--firewall-zones",
        action="store_true",
        help="add one management zone per firewall, attached through it",
    )
    parser.add_argument(
        "--direction-convention",
        choices=[c.value for c in DirectionConvention],
        default=DirectionConvention.INGRESS_INBOUND.value,
        help="where a directed device receives its rule (default: inbound on the ingress interface)",
    )
    parser.add_argument(
        "--measurement-strategy",
        choices=[s.value for s in MeasurementStrategy],
        default=MeasurementStrategy.ALL.value,
        help="place measurement rules on all devices of a path or only the first",
    )
    parser.add_argument("--out", help="write output to this file instead of stdout")
    parser.add_argument(
        "--format",
        choices=["text", "structured"],
        default="text",
        help="human-readable table or the stable JSON document",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="policymap",
        description="Map zone-level policy onto device interfaces and audit existing assignments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="compile policy into device assignments")
    _add_common(p_map)
    p_map.set_defaults(func=cmd_map)

    p_verify = sub.add_parser("verify", help="audit an assignments file against the policy")
    _add_common(p_verify)
    p_verify.add_argument("assignments", help="assignments file (map output JSON)")
    p_verify.set_defaults(func=cmd_verify)

    p_paths = sub.add_parser("paths", help="print all valid device paths between two zones")
    _add_common(p_paths)
    p_paths.add_argument("src", help="source zone name")
    p_paths.add_argument("dst", help="destination zone name")
    p_paths.set_defaults(func=cmd_paths)

    p_whatif = sub.add_parser(
        "whatif", help="diff the device map before and after a hypothetical change"
    )
    _add_common(p_whatif)
    p_whatif.add_argument(
        "--set-transitive", action="append", default=[], metavar="ZONE",
        help="treat ZONE as transitive in the changed run",
    )
    p_whatif.add_argument(
        "--set-non-transitive", action="append", default=[], metavar="ZONE",
        help="treat ZONE as non-transitive in the changed run",
    )
    p_whatif.add_argument(
        "--drop-device", action="append", default=[], metavar="DEVICE",
        help="remove DEVICE from the topology in the changed run",
    )
    p_whatif.set_defaults(func=cmd_whatif)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    except PolicymapError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UnreachablePair) else 1


if __name__ == "__main__":
    sys.exit(main())
