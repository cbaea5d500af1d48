"""The :class:`Finding` record every rule emits.

A finding is one violation of one rule at one source location.  The
``snippet`` (the stripped source line) rides along so a JSON report
shows the offending code without the file at hand.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

__all__ = ["SEVERITIES", "Finding"]

#: Recognised severities, strongest first.
SEVERITIES = ("error", "warning")


@dataclass
class Finding:
    """One rule violation at one location."""

    #: Rule identifier (``"REP101"``).
    rule: str
    #: ``"error"`` or ``"warning"``.
    severity: str
    #: Path of the offending file, POSIX-style, relative to scan root.
    path: str
    #: 1-based line of the offending node.
    line: int
    #: 0-based column of the offending node.
    col: int
    #: Human-readable description of the violation.
    message: str
    #: The stripped source line.
    snippet: str = ""

    def __post_init__(self):
        if self.severity not in SEVERITIES:
            raise ValueError(
                "severity must be one of %s, got %r"
                % (", ".join(SEVERITIES), self.severity)
            )

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule, self.message)

    def location(self):
        return "%s:%d:%d" % (self.path, self.line, self.col + 1)

    # -- serialization (JSON reporter round-trip) --------------------------

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, payload):
        known = {spec.name for spec in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ValueError(
                "unknown Finding fields: %s" % ", ".join(sorted(unknown))
            )
        return cls(**payload)
