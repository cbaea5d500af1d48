# Convenience targets for the checksum reproduction.

PYTHON ?= python

.PHONY: install test bench microbench report figures quicktest chaos channel-check cache-check cache-stats cache-audit lint bless clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

quicktest:
	$(PYTHON) -m pytest tests/ -x -q -m "not slow"

# Rewrite the committed corpus, report and channel trace digests and
# the chaos outputs (tests/golden/) after a deliberate output change;
# prints the profiles, generator kinds, experiments, plan/ARQ pairs
# and fault plans whose digest or output moved.
bless:
	PYTHONPATH=src $(PYTHON) -m tests.golden.corpus
	PYTHONPATH=src $(PYTHON) -m tests.golden.reports
	PYTHONPATH=src $(PYTHON) -m tests.golden.traces
	PYTHONPATH=src $(PYTHON) -m tests.golden.chaos

# Fault-injection verification: the chaos-marked tests (crash
# consistency at every shard boundary, chaotic sweeps) plus the CLI
# harness that injects worker crashes, bit rot, and ENOSPC into a real
# sweep and asserts the counters come out bit-identical, under the
# default plan and under every plan that faults the store.
CHAOS_STORE_PLANS = bitrot full-disk flaky-network replica-outage

chaos:
	$(PYTHON) -m pytest tests/ -q -m chaos
	$(PYTHON) -m repro.cli chaos --bytes 120000
	@for plan in $(CHAOS_STORE_PLANS); do \
		$(PYTHON) -m repro.cli chaos --bytes 120000 --plan $$plan || exit 1; \
	done

# Channel simulator verification: the conformance + replay suite and
# the pinned event streams of every plan and ARQ kind, then a traced
# run over the burst channel replayed bit-identically from its own
# recording.
channel-check:
	$(PYTHON) -m pytest tests/channel tests/test_sim.py \
		tests/golden/test_trace_digests.py -q
	$(PYTHON) -m repro.cli channel run --plan bursty-link --bytes 120000 \
		--trace channel.trace
	$(PYTHON) -m repro.cli channel replay channel.trace
	rm -f channel.trace

# Quick throughput snapshot (BENCH_<n>.json + delta table vs the
# previous one) and the overhead guarantees: disabled telemetry (<2%)
# and sweep journaling (<3% on four 120-150 kB files), both asserted.
# On a 2-vCPU VM's ext4 disk one journal append per shard measured 5.1%
# of sweep time on those four files and 11% on the 12-file nsc05 table
# corpus, against 28% and 41% for the earlier whole-file rewrite per
# shard (medians of 7 runs), so the journaling bound fails there.
bench:
	$(PYTHON) -m repro.cli bench --quick
	$(PYTHON) -m pytest benchmarks/test_telemetry_overhead.py benchmarks/test_journal_overhead.py -q -s

# The full pytest-benchmark suite (regenerates every table & figure).
microbench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# --cache: the second invocation is served from the artifact store
# (~/.cache/repro-checksums or $REPRO_CHECKSUMS_CACHE) and is near-instant.
report:
	$(PYTHON) -m repro.cli report -o report.md --bytes 400000 --cache

# Store transparency: tables 8-10 run with --cache into a temporary
# store (the later tables read the corpora and shards the earlier ones
# stored) must print exactly what --no-cache prints, and the audit that
# follows must be clean and must have scanned the stored corpora.
cache-check:
	@root=$$(mktemp -d) && trap 'rm -rf "$$root"' EXIT && \
	export REPRO_CHECKSUMS_CACHE="$$root/store" && \
	for table in table8 table9 table10; do \
		$(PYTHON) -m repro.cli run $$table --bytes 30000 --no-cache \
			> "$$root/direct" && \
		$(PYTHON) -m repro.cli run $$table --bytes 30000 --cache \
			> "$$root/cached" && \
		diff "$$root/direct" "$$root/cached" && \
		echo "$$table: --cache output identical" || exit 1; \
	done && \
	{ $(PYTHON) -m repro.cli cache audit > "$$root/audit"; status=$$?; \
	  cat "$$root/audit"; test $$status -eq 0; } && \
	grep -Eq '^  corpora/ +[1-9]' "$$root/audit"

cache-stats:
	$(PYTHON) -m repro.cli cache stats

cache-audit:
	$(PYTHON) -m repro.cli cache audit

# Static analysis: the domain-aware reprolint rules always run (one
# cold pass, no cache); ruff and mypy run only when installed (CI
# installs them; the hermetic dev container may not have them, and
# lint must not demand a network).
lint:
	$(PYTHON) -m repro.cli lint src
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping (pip install ruff)"; \
	fi
	@if $(PYTHON) -m mypy --version >/dev/null 2>&1; then \
		$(PYTHON) -m mypy --config-file pyproject.toml src/repro/checksums src/repro/store src/repro/telemetry; \
	else \
		echo "mypy not installed; skipping (pip install mypy)"; \
	fi

figures:
	$(PYTHON) -m repro.cli run figure2 --bytes 600000 --svg figure2.svg
	$(PYTHON) -m repro.cli run figure3 --bytes 600000 --svg figure3.svg

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
