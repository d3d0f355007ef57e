PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench artefacts diff matrix scan chaos serve-smoke lint determinism reach ci

## Tier-1 test suite (fast; micro-benchmarks excluded via the bench marker).
## PYTEST_ARGS lets CI bolt on reporting flags (--junitxml, --durations)
## without forking the invocation.
test:
	$(PYTHON) -m pytest -x -q $(PYTEST_ARGS)

## Run the simulator micro-benchmarks and record BENCH_<date>.json.
bench:
	$(PYTHON) benchmarks/record_baseline.py

## Artefact shape checks: the table-level assertions of Figure 1, TAB-S3,
## TAB-S41, TAB-S42, TAB-S5, ABL-1/2 and EXT (who wins, what gets
## blocked) under benchmarks/.  The micro-benchmarks there skip without
## --run-bench.
artefacts:
	$(PYTHON) -m pytest -q benchmarks

## Differential equivalence suites: every fast lane against its retained
## reference oracle (CPU engine, the kernel sweep's lane replay, batched
## attacks, batched power capture, memoized scanner, and SGX's page mover
## for enclave loads and page swaps, the enclave-load harness).  The fast
## lanes are the default product path, so these guard what users run.
## All six compare through one core (repro.lockstep); test_lockstep_core.py
## proves that core catches a single changed observable in each harness,
## and test_sim_sweeps.py checks the attack twin's closed-form set sweeps
## against its per-access walk and the live cache hierarchy.  --run-diff
## adds the checks too slow for tier 1 (TAB-S41 with scalar Evict+Time).
## CI runs this target in the `differential` job.
diff:
	$(PYTHON) -m pytest -q --run-diff tests/test_lockstep_core.py \
		tests/test_differential.py \
		tests/test_sweep_replay.py \
		tests/test_attack_differential.py tests/test_sim_sweeps.py \
		tests/test_power_differential.py tests/test_spec_memo.py \
		tests/test_enclave_load.py

## Quick evaluation matrix (Figure 1) from the CLI.
matrix:
	$(PYTHON) -m repro figure1

## Speculation scan: sweep the gadget corpus across the quick config grid
## with the multi-path explorer (memoized engine by default; add
## --no-memo for the byte-identical reference lane CI cross-checks
## against); non-zero exit on any expectation violation; leaves
## scan-report.{json,txt} for the CI artifact.
scan:
	$(PYTHON) -m repro scan --no-cache --check \
		--report-json scan-report.json --report-txt scan-report.txt

## Chaos suite: inject crash/hang/raise/corrupt faults into the runner's
## own workers (process level) and SIGKILL whole fleet members / plant
## lease wreckage (host level), proving recovery end to end.
chaos:
	$(PYTHON) -m pytest -q --run-chaos -m chaos \
		tests/test_chaos.py tests/test_service_chaos.py

## Evaluation-as-a-service smoke: a 2-worker fleet drains the quick
## matrix under host-kill chaos; gates on completion and on every
## payload fingerprint matching a fault-free direct run.
serve-smoke:
	$(PYTHON) tools/serve_smoke.py

## Lint gate: ruff when installed (pyproject [tool.ruff]), else the
## stdlib-only fallback implementing the same high-signal rule subset.
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		echo "ruff check ."; ruff check .; \
	else \
		echo "ruff not installed; using tools/lint.py fallback"; \
		$(PYTHON) tools/lint.py; \
	fi

## Determinism smoke: the seed-invariance tests under a fixed and then a
## different PYTHONHASHSEED — results must not depend on hash ordering.
determinism:
	PYTHONHASHSEED=0 $(PYTHON) -m pytest -q tests/test_runner.py -k HashSeed
	PYTHONHASHSEED=12345 $(PYTHON) -m pytest -q tests/test_runner.py -k HashSeed

## Reachability gate: run every entry point above (artefact commands,
## artefact checks, the diff, chaos and serve-smoke targets) under a
## profiling hook; fail on any src/repro module none of them reaches
## unless tools/reach.py allowlists it.  Prints reached/total function
## counts.  Takes a few minutes (the hook slows every call).
reach:
	$(PYTHON) tools/reach.py

## Everything CI gates on, runnable locally before pushing.
ci: lint test determinism
	@echo "local CI mirror passed"
