"""Chaos outputs: the stdout of ``chaos`` under every store fault plan.

Each plan whose faults all land on the store runs in-process through
the CLI entry point as ``chaos --bytes 20000 --seed 3 --plan <plan>``
(its stores in a temporary root the command removes), and what it
prints is compared with the committed ``chaos/<plan>.txt``.  The lines
count store errors, evictions, injected faults and the store-less
demotion, so a change to the number or order of store operations
shows up as a diff of those lines.

The replica-outage demotion line quotes the shard key of the read
that failed, and shard keys hash the code digest, so any source edit
under a digested package changes that key.  The comparison therefore
masks 64-digit hex keys; what it pins is every count and every line.

``monkey`` and ``flaky-workers`` are left out: their worker
supervision counts (broken pools, in-process fallbacks) vary between
runs of the same tree.

Rewrite the committed outputs only on purpose::

    make bless          # or: PYTHONPATH=src python -m tests.golden.chaos

which prints the plans whose output moved.
"""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from repro.cli import main
from tests.golden.reports import moved_ids

GOLDEN_DIR = Path(__file__).with_name("chaos")
PLANS = ("bitrot", "flaky-network", "full-disk", "replica-outage")
FS_BYTES = 20_000
SEED = 3
_KEY = re.compile(r"\b[0-9a-f]{64}\b")


def golden_path(plan):
    return GOLDEN_DIR / ("%s.txt" % plan)


def masked(text):
    """``text`` with every 64-digit hex key replaced by ``<key>``."""
    return _KEY.sub("<key>", text)


def chaos_output(plan):
    """``chaos --plan <plan>``'s stdout at the pinned size and seed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["chaos", "--bytes", str(FS_BYTES), "--seed", str(SEED),
                     "--plan", plan])
    if code != 0:
        raise RuntimeError("chaos --plan %s exited %d" % (plan, code))
    return out.getvalue()


def bless():
    """Rerun every plan, rewrite the files that moved, list them."""
    GOLDEN_DIR.mkdir(exist_ok=True)
    old, new = {}, {}
    for plan in PLANS:
        path = golden_path(plan)
        if path.exists():
            old[plan] = masked(path.read_text(encoding="utf-8"))
        output = chaos_output(plan)
        new[plan] = masked(output)
        if new[plan] != old.get(plan):
            path.write_text(output, encoding="utf-8")
    moved = moved_ids(old, new)
    for plan in moved:
        print("moved: chaos %s" % plan)
    print("%d of %d chaos outputs moved; rewrote those under %s"
          % (len(moved), len(new), GOLDEN_DIR))


if __name__ == "__main__":
    bless()
