"""REP101 / REP102 / REP103: the determinism rules."""

from tests.lint.conftest import finding_rules


class TestUnseededRandomness:
    def test_global_random_function_is_flagged(self, lint):
        result = lint({
            "repro/core/sweep.py": """
                import random

                def pick(items):
                    return random.choice(items)
            """,
        }, rules=["REP101"])
        assert finding_rules(result) == ["REP101"]
        assert "random.choice()" in result.findings[0].message

    def test_unseeded_constructors_are_flagged(self, lint):
        result = lint({
            "repro/analysis/draws.py": """
                import random
                import numpy as np

                def make():
                    a = random.Random()
                    b = np.random.default_rng()
                    return a, b
            """,
        }, rules=["REP101"])
        assert finding_rules(result) == ["REP101", "REP101"]

    def test_seeded_constructors_are_clean(self, lint):
        result = lint({
            "repro/analysis/draws.py": """
                import random
                import numpy as np

                def make(seed):
                    a = random.Random(seed)
                    b = np.random.default_rng(seed)
                    return a.random() + float(b.random())
            """,
        }, rules=["REP101"])
        assert result.findings == []

    def test_machine_entropy_is_flagged(self, lint):
        result = lint({
            "repro/corpus/salt.py": """
                import os

                def salt():
                    return os.urandom(16)
            """,
        }, rules=["REP101"])
        assert finding_rules(result) == ["REP101"]

    def test_modules_outside_the_contract_are_exempt(self, lint):
        result = lint({
            "tools/shuffle.py": """
                import random

                def pick(items):
                    return random.choice(items)
            """,
        }, rules=["REP101"])
        assert result.findings == []

    def test_pragma_suppresses_the_line(self, lint):
        result = lint({
            "repro/core/sweep.py": """
                import random

                def pick(items):
                    # benchmark warm-up only.  reprolint: disable=REP101
                    return random.choice(items)
            """,
        }, rules=["REP101"])
        assert result.findings == []
        assert result.suppressed == 1


class TestWallClock:
    def test_time_time_is_flagged_as_warning(self, lint):
        result = lint({
            "repro/store/meta.py": """
                import time

                def stamp():
                    return time.time()
            """,
        }, rules=["REP102"])
        assert finding_rules(result) == ["REP102"]
        assert result.findings[0].severity == "warning"

    def test_datetime_now_is_flagged(self, lint):
        result = lint({
            "repro/experiments/report.py": """
                import datetime

                def stamp():
                    return datetime.datetime.now()
            """,
        }, rules=["REP102"])
        assert finding_rules(result) == ["REP102"]

    def test_perf_counter_is_clean(self, lint):
        result = lint({
            "repro/store/meta.py": """
                import time

                def elapsed(t0):
                    return time.perf_counter() - t0
            """,
        }, rules=["REP102"])
        assert result.findings == []


class TestUnsortedSerialization:
    def test_dict_items_in_serializer_is_flagged(self, lint):
        result = lint({
            "repro/telemetry/view.py": """
                def to_dict(data):
                    return {k: v for k, v in data.items()}
            """,
        }, rules=["REP103"])
        assert finding_rules(result) == ["REP103"]
        assert "dict.items()" in result.findings[0].message

    def test_sorted_wrapping_is_clean(self, lint):
        result = lint({
            "repro/telemetry/view.py": """
                def to_dict(data):
                    return {k: v for k, v in sorted(data.items())}
            """,
        }, rules=["REP103"])
        assert result.findings == []

    def test_set_literal_iteration_is_flagged(self, lint):
        result = lint({
            "repro/experiments/out.py": """
                def render_rows(a, b, c):
                    lines = []
                    for item in {a, b, c}:
                        lines.append(str(item))
                    return lines
            """,
        }, rules=["REP103"])
        assert finding_rules(result) == ["REP103"]

    def test_non_serializer_functions_are_exempt(self, lint):
        result = lint({
            "repro/experiments/out.py": """
                def tally(data):
                    total = 0
                    for value in data.values():
                        total += value
                    return total
            """,
        }, rules=["REP103"])
        assert result.findings == []
