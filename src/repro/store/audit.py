"""Integrity audit: re-verify every stored object's check trailer.

A live demonstration of the paper's subject matter.  Every artifact in
the store carries a trailer computed with one of the studied check
codes (CRC-32/AAL5 by default); the audit walks the whole tree, re-runs
the code over each payload, and reports what failed.  For
content-addressed objects it additionally recomputes the SHA-256
address — a second, independent detector, so the audit can distinguish
"trailer caught it" from "only the address caught it" (a CRC *miss*,
the very event the paper counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.store.objstore import IntegrityError, ObjectStore, unframe_object

__all__ = ["AuditFinding", "AuditReport", "audit_object_store", "audit_run_store"]


@dataclass
class AuditFinding:
    """One object that failed verification."""

    namespace: str
    digest: str
    reason: str
    evicted: bool = False


@dataclass
class AuditReport:
    """Aggregate outcome of one audit walk."""

    scanned: int = 0
    ok: int = 0
    bytes_scanned: int = 0
    findings: list = field(default_factory=list)
    #: trailer passed but the content address did not: the check code
    #: missed a corruption that the stronger digest caught.
    trailer_misses: int = 0
    #: ``(namespace, objects scanned)`` pairs, in walk order.
    namespaces: list = field(default_factory=list)

    @property
    def corrupt(self):
        return len(self.findings)

    @property
    def clean(self):
        return not self.findings

    def merge(self, other):
        self.scanned += other.scanned
        self.ok += other.ok
        self.bytes_scanned += other.bytes_scanned
        self.findings.extend(other.findings)
        self.trailer_misses += other.trailer_misses
        self.namespaces.extend(other.namespaces)
        return self

    def render(self):
        lines = ["objects scanned    %d" % self.scanned]
        lines += [
            "  %-16s %d" % (name + "/", scanned)
            for name, scanned in self.namespaces
        ]
        lines += [
            "bytes scanned      %d" % self.bytes_scanned,
            "verified ok        %d" % self.ok,
            "corrupt            %d" % self.corrupt,
            "trailer misses     %d" % self.trailer_misses,
        ]
        for finding in self.findings:
            lines.append(
                "  CORRUPT %s/%s: %s%s"
                % (
                    finding.namespace,
                    finding.digest[:16],
                    finding.reason,
                    " (evicted)" if finding.evicted else "",
                )
            )
        return "\n".join(lines)


def audit_object_store(store, namespace="objects", evict=False, content_addressed=False):
    """Verify every object in one :class:`ObjectStore` namespace.

    ``evict=True`` deletes corrupt objects so the next cache lookup
    recomputes them; ``content_addressed=True`` additionally recomputes
    the SHA-256 address of each payload.
    """
    report = AuditReport()
    for digest in list(store.digests()):
        report.scanned += 1
        try:
            blob = store.get_frame(digest)
        except KeyError:  # pragma: no cover - concurrent eviction
            continue
        except OSError as exc:
            report.findings.append(
                AuditFinding(namespace, digest, "unreadable: %s" % exc)
            )
            continue
        report.bytes_scanned += len(blob)
        try:
            payload, _ = unframe_object(blob, verify=True)
        except IntegrityError as exc:
            evicted = bool(evict and store.delete(digest))
            report.findings.append(
                AuditFinding(namespace, digest, str(exc), evicted=evicted)
            )
            continue
        if content_addressed and ObjectStore.address(payload) != digest:
            # The paper's "undetected error" case: the trailer check
            # code passed a payload the content address rejects.
            report.trailer_misses += 1
            evicted = bool(evict and store.delete(digest))
            report.findings.append(
                AuditFinding(
                    namespace, digest, "content address mismatch", evicted=evicted
                )
            )
            continue
        report.ok += 1
    report.namespaces.append((namespace, report.scanned))
    return report


def audit_run_store(run_store, evict=False):
    """Audit every namespace of a :class:`repro.store.runner.RunStore`."""
    report = AuditReport()
    for name, store in run_store.namespaces:
        report.merge(
            audit_object_store(
                store,
                namespace=name,
                evict=evict,
                content_addressed=(name == "objects"),
            )
        )
    return report
