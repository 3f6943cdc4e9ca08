# Developer entry points.  Everything assumes only numpy + pytest are
# installed; `make lint` additionally runs ruff when it is available
# (CI installs it; the rule degrades gracefully without it).

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint docs verify-programs bench all

all: lint test docs

test:
	$(PYTHON) -m pytest -x -q

# Static analysis: the source-tree lint suite (purity + units +
# determinism + contracts, honoring tools/static_analysis_baseline.json;
# always), the ISA program-verifier smoke over the service decode
# geometry (always), and ruff's pyflakes-error rules (when installed).
lint:
	$(PYTHON) tools/static_checks.py
	$(PYTHON) -m repro lint-program OPT-13B --batch-tokens 1
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests tools benchmarks examples; \
	else \
		echo "ruff not installed; skipped ruff check"; \
	fi

docs:
	$(PYTHON) tools/check_docs.py

# Deeper program verification than the lint smoke: every geometry the
# test sweep exercises, plus the batched decode step at the tiny model's
# b = 4 and at OPT-13B's b = 64, the largest batch perfbench's
# serve-steady schedules, in fp16 and int8.
verify-programs:
	$(PYTHON) -m repro lint-program OPT-13B --batch-tokens 1
	$(PYTHON) -m repro lint-program OPT-13B --batch-tokens 64 --ctx-prev 0
	$(PYTHON) -m repro lint-program tiny --batched 4 --errors-only
	$(PYTHON) -m repro lint-program OPT-13B --batched 64 --errors-only
	$(PYTHON) -m repro lint-program OPT-13B --batched 64 --dtype int8 --errors-only

# Cold-process benchmark (perfbench/README.md): every workload in
# BENCHMARK.json, seed 1, about 20 s of children each, untraced.
BENCH_WORKLOADS := serve-steady serve-tenants step-grid

bench:
	@for w in $(BENCH_WORKLOADS); do \
		python3 perfbench/run.py --workload $$w --seed 1 --seconds 20 --trace 0 || exit 1; \
	done
