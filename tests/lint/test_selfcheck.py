"""reprolint dogfoods: the repo's own sources pass every rule.

These are the acceptance checks from the PR contract: the CLI exits 0
on the repository (modulo the committed baseline) and exits nonzero on
a fixture tree seeded with one violation per rule.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint.engine import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def _cli(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *args],
        cwd=str(cwd), env=env, capture_output=True, text=True,
    )


class TestOwnSources:
    def test_src_tree_has_no_active_findings(self):
        result = run_lint([SRC])
        messages = [
            "%s %s %s" % (f.location(), f.rule, f.message)
            for f in result.active
        ]
        assert messages == []
        assert result.files_scanned > 60

    def test_cli_exits_zero_from_repo_root(self):
        proc = _cli(["lint", "src"], cwd=REPO_ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_committed_baseline_is_loadable_and_empty(self):
        from repro.lint.baseline import load_baseline

        assert load_baseline(REPO_ROOT / ".reprolint-baseline.json") == set()


#: One violation per rule (REP000 syntax errors included) -- the
#: acceptance fixture from the PR contract.
_SEEDED = {
    "repro/core/sweep.py": (
        "import random\n"
        "\n"
        "def pick(items):\n"
        "    return random.choice(items)\n"  # REP101
    ),
    "repro/store/meta.py": (
        "import os\n"
        "import time\n"
        "\n"
        "def stamp_and_swap(tmp, final):\n"
        "    t = time.time()\n"  # REP102
        "    os.replace(tmp, final)\n"  # REP401
        "    return t\n"
    ),
    "repro/telemetry/view.py": (
        "def to_dict(data):\n"
        "    return {k: v for k, v in data.items()}\n"  # REP103
    ),
    "repro/core/runner.py": (
        "def run(pool, shard):\n"
        "    return pool.submit(lambda: shard)\n"  # REP201
    ),
    "repro/core/shards.py": (
        "from repro.telemetry import core as telemetry\n"
        "\n"
        "def work(payload):\n"
        "    telemetry.count('files')\n"  # REP202
        "    return payload\n"
        "\n"
        "def run(pool, payload):\n"
        "    return pool.submit(work, payload)\n"
    ),
    "repro/cli.py": (
        "from repro.store.runner import RunStore\n"  # REP301
        "\n"
        "def main():\n"
        "    return RunStore\n"
    ),
    "repro/checksums/crc.py": (
        "from repro.store.objstore import ObjectStore\n"  # REP302
        "\n"
        "def engine():\n"
        "    return ObjectStore\n"
    ),
    "repro/api.py": (
        "from repro.core.engine import SpliceEngine\n"  # REP303
        "\n"
        "def run():\n"
        "    return SpliceEngine\n"
    ),
    "repro/store/journal.py": (
        "def checkpoint(path, blob):\n"
        "    path.write_bytes(blob)\n"  # REP402
    ),
    "repro/store/backends/bad.py": (
        "class RottenBackend:\n"
        "    def get(self, key):\n"
        "        return self._frames[key]\n"  # REP403
    ),
    "repro/core/engine.py": (
        "def verdicts(cells, engine):\n"
        "    out = []\n"
        "    for cell in cells:\n"
        "        out.append(engine.compute(bytes(cell)))\n"  # REP304
        "    return out\n"
    ),
    "repro/checksums/registry.py": (
        "class BadSum:\n"
        "    name = 'bad'\n"
        "    width = 16\n"
        "\n"
        "    def compute(self, data):\n"
        "        return 0\n"
        "\n"
        "\n"
        "_FACTORIES = {\n"
        "    'bad': BadSum,\n"
        "}\n"  # REP501
    ),
    "repro/analysis/helpers.py": (
        "import time\n"
        "\n"
        "def grab_clock():\n"
        "    return time.time()\n"
    ),
    "repro/analysis/export.py": (
        "from repro.analysis.helpers import grab_clock\n"
        "\n"
        "def to_payload(rows):\n"
        "    return {'rows': rows, 'at': grab_clock()}\n"  # REP111
    ),
    "repro/core/factory.py": (
        "def make_worker():\n"
        "    def worker(item):\n"
        "        return item\n"
        "    return worker\n"
    ),
    "repro/core/dispatch.py": (
        "from repro.core.factory import make_worker\n"
        "\n"
        "WORKER = make_worker()\n"
        "\n"
        "def run(pool, shard):\n"
        "    return pool.submit(WORKER, shard)\n"  # REP211
    ),
    "repro/store/conn.py": (
        "def fetch(path):\n"
        "    client = connect(path)\n"  # REP411
        "    data = client.request(path)\n"
        "    client.close()\n"
        "    return data\n"
    ),
    "repro/core/quiet.py": (
        "def add(a, b):\n"
        "    return a + b  # reprolint: disable=REP101\n"  # REP601
    ),
}

_EXPECTED_RULES = {
    "REP101", "REP102", "REP103", "REP111", "REP201", "REP202",
    "REP211", "REP301", "REP302", "REP303", "REP304", "REP401",
    "REP402", "REP403", "REP411", "REP501", "REP601",
}


def _write_seeded(root):
    for rel, source in _SEEDED.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
        parent = path.parent
        while parent != root:
            init = parent / "__init__.py"
            if not init.exists():
                init.write_text("", encoding="utf-8")
            parent = parent.parent


class TestSeededFixture:
    def test_engine_reports_every_rule(self, tmp_path):
        root = tmp_path / "seeded"
        _write_seeded(root)
        result = run_lint([root])
        assert _EXPECTED_RULES <= {f.rule for f in result.active}
        assert result.exit_code == 1

    def test_committed_contract_trips_rep311_on_the_fixture(self, tmp_path):
        # The REP302 seed (checksums importing the store) is also an
        # illegal edge under the committed layer contract.
        from repro.lint.config import load_contract

        root = tmp_path / "seeded"
        _write_seeded(root)
        contract = load_contract(REPO_ROOT / ".reprolint.toml")
        result = run_lint([root], rules=["REP311"], contract=contract)
        assert {f.rule for f in result.active} == {"REP311"}

    def test_cli_exits_nonzero_with_parseable_json(self, tmp_path):
        root = tmp_path / "seeded"
        _write_seeded(root)
        proc = _cli(
            ["lint", "--no-baseline", "--format", "json", str(root)],
            cwd=tmp_path,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["schema"] == "repro-lint/1"
        reported = set(payload["summary"]["by_rule"])
        assert _EXPECTED_RULES <= reported
