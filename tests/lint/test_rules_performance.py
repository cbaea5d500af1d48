"""REP304: the scalar-hot-loop rule."""

from tests.lint.conftest import finding_rules


class TestScalarHotLoop:
    def test_scalar_kernel_in_loop_is_flagged(self, lint):
        result = lint({
            "repro/core/engine.py": """
                def verdicts(cells, engine):
                    out = []
                    for cell in cells:
                        out.append(engine.compute(bytes(cell)))
                    return out
            """,
        }, rules=["REP304"])
        assert finding_rules(result) == ["REP304"]
        assert "compute" in result.findings[0].message

    def test_underscored_helper_name_is_flagged(self, lint):
        result = lint({
            "repro/core/fragsplice.py": """
                def judge(subsets, packet):
                    missed = 0
                    for subset in subsets:
                        if _verify("tcp", packet):
                            missed += 1
                    return missed
            """,
        }, rules=["REP304"])
        assert finding_rules(result) == ["REP304"]

    def test_call_in_while_test_is_flagged(self, lint):
        result = lint({
            "repro/core/engine.py": """
                def drain(engine, queue):
                    while engine.verify(queue.peek()):
                        queue.pop()
            """,
        }, rules=["REP304"])
        assert finding_rules(result) == ["REP304"]

    def test_comprehension_inside_loop_is_flagged(self, lint):
        result = lint({
            "repro/core/engine.py": """
                def targets(pairs, engines):
                    for pair in pairs:
                        yield {n: e.compute(pair) for n, e in engines}
            """,
        }, rules=["REP304"])
        assert finding_rules(result) == ["REP304"]

    def test_call_outside_loop_is_clean(self, lint):
        result = lint({
            "repro/core/engine.py": """
                def target(engine, frame):
                    return engine.compute(frame)
            """,
        }, rules=["REP304"])
        assert result.findings == []

    def test_for_iterable_is_evaluated_once_and_clean(self, lint):
        result = lint({
            "repro/core/engine.py": """
                def spans(engine, frame):
                    for word in word_sums(frame):
                        yield word
            """,
        }, rules=["REP304"])
        assert result.findings == []

    def test_batch_kernels_in_loop_are_clean(self, lint):
        result = lint({
            "repro/core/engine.py": """
                def folds(engine, chunks):
                    out = []
                    for chunk in chunks:
                        out.append(engine.process_cells(chunk))
                        out.append(range_word_sums(chunk, 0, 8))
                    return out
            """,
        }, rules=["REP304"])
        assert result.findings == []

    def test_cold_module_loop_is_clean(self, lint):
        result = lint({
            "repro/analysis/tables.py": """
                def totals(engine, frames):
                    return [engine.compute(f) for f in frames]
            """,
        }, rules=["REP304"])
        assert result.findings == []

    def test_nested_loops_report_once(self, lint):
        result = lint({
            "repro/core/engine.py": """
                def verdicts(pairs, selections, options):
                    out = []
                    for pair in pairs:
                        for selection in selections:
                            out.append(judge_splice_cells(pair, selection, options))
                    return out
            """,
        }, rules=["REP304"])
        assert finding_rules(result) == ["REP304"]

    def test_pragma_suppresses_the_reference_path(self, lint):
        result = lint({
            "repro/core/engine.py": """
                def verdicts(cells, engine):
                    out = []
                    for cell in cells:
                        # Conformance baseline.  reprolint: disable=REP304
                        out.append(engine.compute(bytes(cell)))
                    return out
            """,
        }, rules=["REP304"])
        assert result.findings == []
        assert result.suppressed == 1
