"""Report digests: the sha256 of every experiment's ``run`` stdout.

Each registered experiment runs in-process through the CLI entry point
as ``run <id> --bytes 20000 --seed 3`` with the store and its sweep
journal under a throwaway root, and the digest of what it prints is
compared against ``report_digests.json``.  A change that moves any
number in any table moves its digest.

Rewrite the committed digests only on purpose::

    make bless          # or: PYTHONPATH=src python -m tests.golden.reports

which prints the experiments whose digests moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from repro.cli import main
from repro.experiments.registry import experiment_ids

DIGEST_FILE = Path(__file__).with_name("report_digests.json")
FS_BYTES = 20_000
SEED = 3


def report_digest(experiment_id):
    """sha256 of ``run <experiment_id>``'s stdout at the pinned size."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["run", experiment_id, "--bytes", str(FS_BYTES),
                     "--seed", str(SEED)])
    if code != 0:
        raise RuntimeError("run %s exited %d" % (experiment_id, code))
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def report_digests():
    """Digests of every registered experiment, keyed by id."""
    return {name: report_digest(name) for name in sorted(experiment_ids())}


def load_digests():
    """The committed ``{"bytes", "seed", "digests"}`` record."""
    return json.loads(DIGEST_FILE.read_text(encoding="utf-8"))


def moved_ids(old, new):
    """Keys whose digest differs between two digest maps."""
    return sorted(name for name in set(old) | set(new)
                  if old.get(name) != new.get(name))


def bless():
    """Recompute every digest, rewrite the file, list what moved."""
    old = load_digests()["digests"] if DIGEST_FILE.exists() else {}
    with tempfile.TemporaryDirectory() as root:
        os.environ["REPRO_CHECKSUMS_CACHE"] = root
        new = report_digests()
    record = {"bytes": FS_BYTES, "seed": SEED, "digests": new}
    DIGEST_FILE.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    moved = moved_ids(old, new)
    for name in moved:
        print("moved: %s" % name)
    print("%d of %d report digests moved; wrote %s"
          % (len(moved), len(new), DIGEST_FILE))


if __name__ == "__main__":
    bless()
