.PHONY: install test bench bench-artifacts examples lint check report campaign-smoke all

install:
	pip install -e . --no-build-isolation

test:
	PYTHONPATH=src pytest tests/ --durations=15

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping lint (pip install ruff)"; \
	fi

check:
	PYTHONPATH=src python -m repro.checks src tests benchmarks examples

report:
	mkdir -p artifacts
	PYTHONPATH=src python -m repro run helcfl --quick --rounds 5 --trace artifacts/run-trace.jsonl
	PYTHONPATH=src python -m repro trace-report artifacts/run-trace.jsonl

campaign-smoke:
	rm -rf artifacts/campaign-smoke
	PYTHONPATH=src python -m repro campaign run examples/campaign_smoke.json --dir artifacts/campaign-smoke
	PYTHONPATH=src python -m repro campaign status artifacts/campaign-smoke

bench:
	PYTHONPATH=src pytest benchmarks/ --benchmark-only -s

bench-artifacts:
	PYTHONPATH=src pytest benchmarks/bench_fig2.py benchmarks/bench_table1.py \
	  benchmarks/bench_fig3.py --benchmark-only -s

examples:
	@for example in examples/*.py; do \
		echo "== $$example"; \
		PYTHONPATH=src python "$$example" || exit 1; \
	done

all: install test check bench
