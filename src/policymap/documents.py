"""Stable textual and structured forms of the pipeline outputs.

The structured forms are JSON-shaped trees with fixed field names; the
map document doubles as the assignments file format for verification, so
a map run can be audited back without translation.  All lists are sorted
and all dict keys are emitted in sorted order, making every document a
deterministic function of its inputs.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Sequence

from .errors import AssignmentsError
from .mapper import (
    AssignmentFinding,
    DeviceAssignment,
    Direction,
    PolicyDelta,
    VerificationReport,
)
from .policy import (
    EMPTY_SERVICES,
    UNBOUNDED,
    MeasurementValue,
    PolicyContext,
    PolicyRule,
    PolicyValue,
    QosValue,
    SecurityValue,
    ServiceSet,
    parse_service_token,
    parse_services,
)


def bandwidth_text(value: Fraction) -> str:
    """Exact decimal form when one exists (up to six places), else p/q."""
    if value.denominator == 1:
        return str(value.numerator)
    for places in range(1, 7):
        scaled = value * 10**places
        if scaled.denominator == 1:
            digits = str(scaled.numerator).rjust(places + 1, "0")
            return digits[:-places] + "." + digits[-places:]
    return f"{value.numerator}/{value.denominator}"


def value_to_text(value: PolicyValue) -> str:
    if isinstance(value, (SecurityValue, MeasurementValue)):
        return value.services.text()
    if isinstance(value, QosValue):
        if value.bandwidth == UNBOUNDED:
            raise ValueError("unbounded bandwidth is not serializable")
        # A predicate-less value only arises in derived/intended delta
        # reporting (the no-rule baseline); it is display-only.
        head = "" if value.service is None else f"{value.service.text()} "
        return f"{head}min {bandwidth_text(value.bandwidth)}MB/s"
    raise ValueError(f"not a policy value: {value!r}")


_QOS_TEXT_RE = re.compile(r"^(\S+)\s+min\s+(\S+?)\s*MB/s$")


def value_from_text(context: PolicyContext, text: str) -> PolicyValue:
    text = text.strip()
    if context is PolicyContext.QOS:
        match = _QOS_TEXT_RE.match(text)
        if not match:
            raise ValueError(f"bad qos value {text!r}")
        service, amount = match.groups()
        predicate = ServiceSet.from_ranges(parse_service_token(service))
        return QosValue(Fraction(amount), predicate)
    services = EMPTY_SERVICES if text == "none" else parse_services(text)
    if context is PolicyContext.SECURITY:
        return SecurityValue(services)
    return MeasurementValue(services)


def assignment_to_dict(assignment: DeviceAssignment) -> dict:
    rule = assignment.rule
    return {
        "device": assignment.device_id,
        "interface": assignment.interface,
        "direction": assignment.direction.value,
        "context": rule.context.value,
        "src": rule.src,
        "dst": rule.dst,
        "value": value_to_text(rule.value),
    }


def assignment_from_dict(entry: dict) -> DeviceAssignment:
    try:
        context = PolicyContext(entry["context"])
        rule = PolicyRule(
            entry["src"], entry["dst"], value_from_text(context, entry["value"])
        )
        return DeviceAssignment(
            entry["device"], entry["interface"], Direction(entry["direction"]), rule
        )
    except (KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        raise AssignmentsError(f"bad assignment entry {entry!r}: {exc}") from exc


def _rule_line(entry: dict) -> str:
    return f"{entry['context']} {entry['src']} -> {entry['dst']} : {entry['value']}"


def _entries(assignments) -> list[dict]:
    return [assignment_to_dict(a) for a in sorted(assignments, key=DeviceAssignment.sort_key)]


def map_document(assignments: Sequence[DeviceAssignment]) -> dict:
    """The policy-to-device map: a flat table plus the per-device tree."""
    flat = _entries(assignments)
    tree: dict = {}
    for entry in flat:
        rules = (
            tree.setdefault(entry["device"], {})
            .setdefault(entry["interface"], {})
            .setdefault(entry["direction"], [])
        )
        line = _rule_line(entry)
        if line not in rules:
            rules.append(line)
    for device in tree.values():
        for interface in device.values():
            for lines in interface.values():
                lines.sort()
    return {"assignments": flat, "by_device": tree}


def load_assignments(text: str) -> list[DeviceAssignment]:
    """Read an assignments file (the map document, or a bare entry list)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AssignmentsError(f"not valid JSON: {exc}") from exc
    if isinstance(payload, dict):
        entries = payload.get("assignments")
        if entries is None:
            raise AssignmentsError("document has no 'assignments' list")
    elif isinstance(payload, list):
        entries = payload
    else:
        raise AssignmentsError("expected an object or a list at top level")
    if not isinstance(entries, list):
        raise AssignmentsError("'assignments' is not a list")
    return [assignment_from_dict(entry) for entry in entries]


def finding_to_dict(finding: AssignmentFinding) -> dict:
    entry = assignment_to_dict(finding.assignment)
    entry["classification"] = finding.classification.value
    return entry


def delta_to_dict(delta: PolicyDelta) -> dict:
    return {
        "src": delta.src,
        "dst": delta.dst,
        "context": delta.context.value,
        "intended": value_to_text(delta.intended),
        "derived": value_to_text(delta.derived),
    }


def verify_document(report: VerificationReport) -> dict:
    findings = [
        finding_to_dict(f)
        for f in sorted(report.findings, key=lambda f: f.assignment.sort_key())
    ]
    delta_key = lambda e: (e["context"], e["src"], e["dst"])
    return {
        "clean": report.clean,
        "counts": report.counts,
        "findings": findings,
        "policy_deltas": sorted((delta_to_dict(d) for d in report.deltas), key=delta_key),
        "overprovisioned": sorted(
            (delta_to_dict(d) for d in report.overprovisioned), key=delta_key
        ),
    }


def merge_reports(reports: Sequence[VerificationReport]) -> VerificationReport:
    return VerificationReport(
        findings=tuple(f for r in reports for f in r.findings),
        deltas=tuple(d for r in reports for d in r.deltas),
        overprovisioned=tuple(d for r in reports for d in r.overprovisioned),
    )


def diff_document(
    before_assignments: Sequence[DeviceAssignment],
    before_unreachable: Sequence[tuple[str, str, str]],
    after_assignments: Sequence[DeviceAssignment],
    after_unreachable: Sequence[tuple[str, str, str]],
) -> dict:
    """What-if diff: assignment and reachability changes between two runs."""
    before, after = set(before_assignments), set(after_assignments)
    before_un, after_un = set(before_unreachable), set(after_unreachable)

    def pairs(unreachable):
        return [{"context": c, "src": s, "dst": d} for c, s, d in sorted(unreachable)]

    return {
        "removed": _entries(before - after),
        "added": _entries(after - before),
        "new_unreachable": pairs(after_un - before_un),
        "resolved_unreachable": pairs(before_un - after_un),
    }


def to_json(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _table(rows: list[tuple[str, ...]], header: tuple[str, ...]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        widths = [max(w, len(cell)) for w, cell in zip(widths, row)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*header).rstrip()]
    lines.extend(fmt.format(*row).rstrip() for row in rows)
    return "\n".join(lines)


def render_map_text(document: dict) -> str:
    entries = document["assignments"]
    if not entries:
        return "no assignments\n"
    rows = [
        (e["device"], e["interface"], e["direction"], e["context"],
         f"{e['src']} -> {e['dst']}", e["value"])
        for e in entries
    ]
    return _table(rows, ("DEVICE", "INTERFACE", "DIRECTION", "CONTEXT", "RULE", "VALUE")) + "\n"


def render_verify_text(document: dict) -> str:
    counts = document["counts"]
    lines = [
        f"correct:             {counts['correct']}",
        f"incorrect firewall:  {counts['incorrect_firewall']}",
        f"incorrect interface: {counts['incorrect_interface']}",
        f"incorrect direction: {counts['incorrect_direction']}",
    ]
    problems = [e for e in document["findings"] if e["classification"] != "correct"]
    if problems:
        rows = [
            (e["classification"], e["device"], e["interface"], e["direction"],
             e["context"], f"{e['src']} -> {e['dst']}")
            for e in problems
        ]
        lines.append("")
        lines.append(_table(rows, ("ERROR", "DEVICE", "INTERFACE", "DIRECTION", "CONTEXT", "RULE")))
    if document["policy_deltas"]:
        lines.append("")
        lines.append("policy deltas (implemented policy differs from intent):")
        for d in document["policy_deltas"]:
            lines.append(
                f"  {d['context']} {d['src']} -> {d['dst']}: "
                f"intended [{d['intended']}] derived [{d['derived']}]"
            )
    if document["overprovisioned"]:
        lines.append("")
        lines.append("over-provisioned qos pairs (informational):")
        for d in document["overprovisioned"]:
            lines.append(
                f"  {d['src']} -> {d['dst']}: intended [{d['intended']}] "
                f"derived [{d['derived']}]"
            )
    lines.append("")
    lines.append("verdict: " + ("clean" if document["clean"] else "problems found"))
    return "\n".join(lines) + "\n"


def render_diff_text(document: dict) -> str:
    lines = []
    for label, entries in (("removed", document["removed"]), ("added", document["added"])):
        for e in entries:
            sign = "-" if label == "removed" else "+"
            lines.append(
                f"{sign} {e['device']}/{e['interface']}/{e['direction']}  "
                f"{_rule_line(e)}"
            )
    for e in document["new_unreachable"]:
        lines.append(f"! now unreachable: {e['context']} {e['src']} -> {e['dst']}")
    for e in document["resolved_unreachable"]:
        lines.append(f"* now reachable: {e['context']} {e['src']} -> {e['dst']}")
    if not lines:
        return "no changes\n"
    return "\n".join(lines) + "\n"
