"""Trace digests: the sha256 of every channel event stream, per plan and ARQ.

Each named channel plan runs under each ARQ discipline as a traced
sweep over ``build_filesystem("nsc05", 20000, 3)`` (plan seed 3), and
the sha256 of the canonical JSON of its event stream and merged report
is compared against ``trace_digests.json``.  Report digests pin the
tables' counters; these pin every send, timeout, reject, skip and
delivery, in order.

Rewrite the committed digests only on purpose::

    make bless          # or: PYTHONPATH=src python -m tests.golden.traces

which prints the plan and ARQ pairs whose digests moved.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.channel.arq import ARQ_KINDS, ArqConfig
from repro.channel.plan import channel_plan_names, named_channel_plan
from repro.channel.sweep import run_channel_sweep
from repro.corpus.profiles import build_filesystem
from tests.golden.reports import moved_ids

DIGEST_FILE = Path(__file__).with_name("trace_digests.json")
SYSTEM = "nsc05"
FS_BYTES = 20_000
SEED = 3


def trace_digest(filesystem, plan_name, arq_kind):
    """sha256 of one traced sweep's events and report, canonical JSON."""
    events = []
    report = run_channel_sweep(
        filesystem, named_channel_plan(plan_name, seed=SEED),
        arq=ArqConfig(kind=arq_kind), events_out=events,
    )
    canonical = json.dumps(
        {"events": events, "report": report.to_dict()},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def trace_digests():
    """Digests of every named plan under every ARQ kind, ``"plan/arq"``."""
    filesystem = build_filesystem(SYSTEM, FS_BYTES, SEED)
    return {
        "%s/%s" % (plan, kind): trace_digest(filesystem, plan, kind)
        for plan in channel_plan_names()
        for kind in ARQ_KINDS
    }


def load_digests():
    """The committed ``{"system", "bytes", "seed", "digests"}`` record."""
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


def bless():
    """Recompute every digest, rewrite the file, list what moved."""
    old = load_digests()["digests"] if DIGEST_FILE.exists() else {}
    new = trace_digests()
    record = {"system": SYSTEM, "bytes": FS_BYTES, "seed": SEED,
              "digests": new}
    DIGEST_FILE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    moved = moved_ids(old, new)
    for name in moved:
        print("moved: %s" % name)
    print("%d of %d trace digests moved; wrote %s"
          % (len(moved), len(new), DIGEST_FILE))


if __name__ == "__main__":
    bless()
