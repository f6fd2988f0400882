"""Stable textual and structured forms of the pipeline outputs.

The structured forms are JSON-shaped trees with fixed field names; the
map document doubles as the assignments file format for verification.
All lists are sorted and all dict keys are emitted in sorted order, so
every document is a deterministic function of its inputs.  An entry list
is an Entries over mapper.Placements rows: a read-only sequence of entry
dicts, built only when read, that to_json writes from the rule and site
tables with one format string per entry shape (json.dumps needs it as a
list).  An assignments file is read back into a Placements: a row per
entry, over its distinct rules and sites.
Rule values are printed and parsed by policy.py, in the policy file's
grammar; this module has no value syntax.
"""

from __future__ import annotations

import json
from collections.abc import Sequence

from .errors import AssignmentsError
from .mapper import DIRECTIONS, Placements, PolicyDelta, VerificationReport
from .policy import PolicyContext, PolicyRule, rule_line, value_from_text, value_to_text

_FIELDS = ("device", "interface", "direction", "context", "src", "dst", "value")


def _check_text(fields) -> None:
    """TypeError unless every field is a str; ValueError for one that could
    not be printed back (a lone surrogate from a \\ud800 escape)."""
    if not "".join(fields).isascii():
        for field in fields:
            field.encode("utf-8")


def _rule(context: str, src: str, dst: str, value: str, values: dict) -> PolicyRule:
    """The rule of an entry's rule fields, each (context, value text) parsed
    once into values; ValueError for a bad one."""
    parsed = values.get((context, value))
    if parsed is None:
        parsed = values[context, value] = value_from_text(PolicyContext(context), value)
    return PolicyRule(src, dst, parsed)


def _check_direction(direction: str) -> None:
    if direction not in DIRECTIONS:
        raise ValueError(f"{direction!r} is not a valid Direction")


def _placements(entries: list) -> Placements:
    """The placements of entries, one row per entry in file order; each
    distinct rule and site is checked and built where it is first met, so
    AssignmentsError names the first bad entry."""
    values: dict = {}
    ids: dict[PolicyRule, int] = {}
    rule_ids: dict = {}
    site_ids: dict = {}  # in first-met order until the sites are sorted
    rows = []
    for entry in entries:
        try:
            try:
                rule_key = (entry["context"], entry["src"], entry["dst"], entry["value"])
                site = (entry["device"], entry["interface"], entry["direction"])
                r, s = rule_ids.get(rule_key), site_ids.get(site)
                if r is None or s is None:
                    _check_text(site + rule_key)
            except (KeyError, TypeError):  # a field is missing or not a string
                raise AssignmentsError(
                    f"bad assignment entry {entry!r}: needs string {', '.join(_FIELDS)}"
                ) from None
            if r is None:
                r = rule_ids[rule_key] = ids.setdefault(_rule(*rule_key, values), len(ids))
            if s is None:
                _check_direction(site[2])
                s = site_ids[site] = len(site_ids)
        except ValueError as exc:
            raise AssignmentsError(f"bad assignment entry {entry!r}: {exc}") from exc
        rows.append((r, s))
    sites = sorted(site_ids)
    rank = dict(zip(sites, range(len(sites))))
    sorted_id = [rank[site] for site in site_ids]
    return Placements(list(ids), sites, [(r, sorted_id[s]) for r, s in rows])


def _rule_fields(placements: Placements) -> list[tuple[str, str, str, str] | None]:
    """(context, src, dst, value text) per rule of placements that a row
    uses, None for the others; each value printed once."""
    used = {r for r, _ in placements.rows}
    texts: dict = {}
    fields = []
    for r, rule in enumerate(placements.rules):
        if r not in used:
            fields.append(None)
            continue
        text = texts.get(rule.value)
        if text is None:
            text = texts[rule.value] = value_to_text(rule.value)
        fields.append((rule.context.value, rule.src, rule.dst, text))
    return fields


class Entries(Sequence):
    """A document's entry list: one entry per row of placements, in document
    order, with the seven assignment fields and, when classes (one per row of
    placements) are given, a "classification".  Read-only; indexing or
    iterating builds an entry dict, a slice is a list of them, and == compares
    as a list with any sequence.  to_json writes it from the rule and site
    tables, with no entry dict; json.dumps needs list(entries)."""

    __slots__ = ("rows", "rules", "sites", "classes")

    def __init__(self, placements: Placements, fields: list, classes=None):
        order = placements.order()
        self.rows = list(map(placements.rows.__getitem__, order))
        self.rules = fields  # as _rule_fields gives them
        self.sites = placements.sites
        self.classes = None if classes is None else list(map(classes.__getitem__, order))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        r, s = self.rows[i]
        entry = dict(zip(_FIELDS, self.sites[s] + self.rules[r]))
        if self.classes is not None:
            entry["classification"] = self.classes[i].value
        return entry

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"Entries({list(self)!r})"

    def json(self, newline: str) -> str:
        """The list's JSON as to_json writes it, with newline at its indentation."""
        if not self.rows:
            return "[]"
        inner = newline + "  "
        keys = _FIELDS if self.classes is None else (*_FIELDS, "classification")
        # One placeholder per field, numbered by its place in keys.
        body = ",".join(f"{inner}  {_quote(key)}: {{{keys.index(key)}}}" for key in sorted(keys))
        template = f"{inner}{{{{{body}{inner}}}}}".format
        sites = [tuple(map(_quote, site)) for site in self.sites]
        rules = [fields and tuple(map(_quote, fields)) for fields in self.rules]
        if self.classes is None:
            items = [template(*sites[s], *rules[r]) for r, s in self.rows]
        else:
            quoted = {cls: _quote(cls.value) for cls in set(self.classes)}
            items = [
                template(*sites[s], *rules[r], quoted[cls])
                for (r, s), cls in zip(self.rows, self.classes)
            ]
        return "[" + ",".join(items) + newline + "]"


def map_document(placements: Placements) -> dict:
    """The policy-to-device map: a flat table plus the per-device tree."""
    fields = _rule_fields(placements)
    lines = [f and rule_line(rule.context, *f[1:]) for rule, f in zip(placements.rules, fields)]
    at_site: list[set[str]] = [set() for _ in placements.sites]
    for r, s in placements.rows:
        at_site[s].add(lines[r])
    tree: dict = {}
    for (device, interface, direction), site_lines in zip(placements.sites, at_site):
        if site_lines:
            tree.setdefault(device, {}).setdefault(interface, {})[direction] = sorted(site_lines)
    return {"assignments": Entries(placements, fields), "by_device": tree}


def load_assignments(text: str) -> Placements:
    """Read an assignments file (the map document, or a bare entry list): one
    row per entry, in file order."""
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
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
    return _placements(entries)


def delta_to_dict(delta: PolicyDelta, texts: dict) -> dict:
    """A delta's entry; texts maps each value already printed to its text."""
    entry = {"src": delta.src, "dst": delta.dst, "context": delta.context.value}
    for key, value in (("intended", delta.intended), ("derived", delta.derived)):
        text = texts.get(value)
        if text is None:
            text = texts[value] = value_to_text(value)
        entry[key] = text
    return entry


def verify_document(report: VerificationReport) -> dict:
    placements = report.findings
    texts: dict = {}  # each distinct value printed once, as _rule_fields does

    def deltas(found):
        entries = [delta_to_dict(d, texts) for d in found]
        return sorted(entries, key=lambda e: (e["context"], e["src"], e["dst"]))

    return {
        "clean": report.clean,
        "counts": report.counts,
        "findings": Entries(placements, _rule_fields(placements), report.classes),
        "policy_deltas": deltas(report.deltas),
        "overprovisioned": deltas(report.overprovisioned),
    }


def merge_reports(reports: Sequence[VerificationReport]) -> VerificationReport:
    """One report of reports' findings, in turn; rows over tables the findings
    all share (as the selections of one loaded file do) are concatenated."""
    parts = [report.findings for report in reports]
    first = parts[0] if parts else Placements([], [], [])
    if all(p.rules is first.rules and p.sites is first.sites for p in parts):
        findings = Placements(first.rules, first.sites, [row for p in parts for row in p.rows])
    else:
        findings = Placements.of((p.rules[r], p.sites[s]) for p in parts for r, s in p.rows)
    return VerificationReport(
        findings=findings,
        classes=tuple(c for r in reports for c in r.classes),
        deltas=tuple(d for r in reports for d in r.deltas),
        overprovisioned=tuple(d for r in reports for d in r.overprovisioned),
    )


def _difference(a: Placements, b: Placements) -> Placements:
    """The (rule, site) placements of a that b lacks, each once, over a's tables."""
    b_sites: list[set] = [set() for _ in b.rules]
    for r, s in b.rows:
        b_sites[r].add(b.sites[s])
    in_b = dict(zip(b.rules, b_sites))
    lacking = [in_b.get(rule, ()) for rule in a.rules]
    rows = dict.fromkeys((r, s) for r, s in a.rows if a.sites[s] not in lacking[r])
    return Placements(a.rules, a.sites, list(rows))


def diff_document(
    before_placements: Placements,
    before_unreachable: Sequence[PolicyRule],
    after_placements: Placements,
    after_unreachable: Sequence[PolicyRule],
) -> dict:
    """What-if diff of two runs' placements and unreachable rules, of one policy."""
    removed = _difference(before_placements, after_placements)
    added = _difference(after_placements, before_placements)
    before_un, after_un = set(before_unreachable), set(after_unreachable)

    def pairs(rules):
        keys = sorted((rule.context.value, rule.src, rule.dst) for rule in rules)
        return [{"context": c, "src": s, "dst": d} for c, s, d in keys]

    return {
        "removed": Entries(removed, _rule_fields(removed)),
        "added": Entries(added, _rule_fields(added)),
        "new_unreachable": pairs(after_un - before_un),
        "resolved_unreachable": pairs(before_un - after_un),
    }


def to_json(document: dict) -> str:
    """json.dumps(document, indent=2, sort_keys=True, ensure_ascii=False) + "\n", byte for
    byte, on dicts with str keys, lists, strs, bools and ints, and Entries taken as lists,
    without its pure-Python encoder."""
    chunks: list[str] = []
    _write(document, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


_quote = json.encoder.encode_basestring  # C-backed; TypeError for a key that is not a str


def _write(value, newline: str, out) -> None:
    """Pass value's JSON to out in pieces; newline starts a line at value's indentation."""
    if isinstance(value, str):
        out(_quote(value))
    elif isinstance(value, bool):
        out("true" if value else "false")
    elif isinstance(value, int):
        out(int.__repr__(value))
    elif isinstance(value, dict):
        inner, sep = newline + "  ", "{"
        for key in sorted(value):
            item = value[key]
            if type(item) is str:
                out(f"{sep}{inner}{_quote(key)}: {_quote(item)}")
            else:
                out(f"{sep}{inner}{_quote(key)}: ")
                _write(item, inner, out)
            sep = ","
        out(newline + "}" if value else "{}")
    elif isinstance(value, list):
        inner, sep = newline + "  ", "["
        for item in value:
            out(sep + inner)
            _write(item, inner, out)
            sep = ","
        out(newline + "]" if value else "[]")
    elif isinstance(value, Entries):
        out(value.json(newline))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
    for sign, entries in (("-", document["removed"]), ("+", document["added"])):
        for e in entries:
            lines.append(
                f"{sign} {e['device']}/{e['interface']}/{e['direction']}  "
                + rule_line(PolicyContext(e["context"]), e["src"], e["dst"], e["value"])
            )
    for e in document["new_unreachable"]:
        lines.append(f"! now unreachable: {e['context']} {e['src']} -> {e['dst']}")
    for e in document["resolved_unreachable"]:
        lines.append(f"* now reachable: {e['context']} {e['src']} -> {e['dst']}")
    if not lines:
        return "no changes\n"
    return "\n".join(lines) + "\n"
