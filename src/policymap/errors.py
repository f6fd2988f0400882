"""Exception hierarchy shared across the policymap package.

Everything raised on purpose derives from PolicymapError so the CLI can
separate expected failures (bad input files, impossible policies) from
genuine bugs.
"""


class PolicymapError(Exception):
    """Base class for all errors raised by this package."""


class MalformedDocument(PolicymapError):
    """Topology input is not well-formed XML/GraphML."""


class SchemaError(PolicymapError):
    """Topology input is well-formed but violates the expected schema."""


class PolicyParseError(PolicymapError):
    """Policy file could not be parsed; message carries the line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class UnknownZone(PolicymapError):
    """A zone name does not resolve against the model."""


class UnknownDevice(PolicymapError):
    """A device id does not resolve against the topology."""


class DimensionMismatch(PolicymapError):
    """Matrix operands do not share a dimension."""


class ContextMismatch(PolicymapError):
    """Policy values from different contexts were composed together."""


class MissingDevicePolicy(PolicymapError):
    """End-to-end derivation hit a device with no assigned policy value."""


class EmptyPathSet(PolicymapError):
    """End-to-end derivation over an empty path set (unreachable pair)."""


class UnprintableValue(PolicymapError):
    """A derived policy value has more digits than the interpreter prints."""


class UnreachablePair(PolicymapError):
    """A rule names a zone pair with no valid device path between them."""

    def __init__(self, src: str, dst: str, context: str):
        super().__init__(
            f"no valid device path from zone {src!r} to zone {dst!r}; "
            f"{context} rule cannot be implemented"
        )
        self.src = src
        self.dst = dst
        self.context = context


class AssignmentsError(PolicymapError):
    """Assignments file for verification is malformed."""
