# Convenience targets for the repro project.

PYTHON ?= python

# Targets work from a bare checkout: the in-tree package wins over any
# installed copy.
export PYTHONPATH := src

# Optional tooling is detected, never required: the coverage floor only
# gates when pytest-cov is importable, and test-fast only parallelizes
# when pytest-xdist is.
COV_FLAGS := $(shell $(PYTHON) -c "import pytest_cov" 2>/dev/null && echo --cov=repro --cov-fail-under=85)
XDIST_FLAGS := $(shell $(PYTHON) -c "import xdist" 2>/dev/null && echo --numprocesses=auto)

.PHONY: install test test-fast smoke repo-bench repo-bench-selftest repo-bench-compare repo-bench-pairs loc reach experiments charts lint-clean all

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ $(COV_FLAGS)

# The same suite, each test once, wall-clock-optimized: differential
# oracle first (it guards the kernels everything else rides on), then the
# rest, fanned out across cores when pytest-xdist is available.
test-fast:
	$(PYTHON) -m pytest tests/differential/ -q
	$(PYTHON) -m pytest tests/ -q --ignore=tests/differential $(XDIST_FLAGS)

# Crash-safety smoke: a tiny full run with failure isolation, then a
# resume of the same run (which must skip every exhibit).  See
# docs/ROBUSTNESS.md; the same contract runs in the test suite as
# tests/integration/test_smoke_resume.py.
smoke:
	$(PYTHON) -m repro.experiments all --scale 0.05 --out /tmp/smoke --keep-going
	$(PYTHON) -m repro.experiments all --scale 0.05 --out /tmp/smoke --keep-going --resume

# The repository benchmark (bench/, declared in BENCHMARK.json): four
# workloads end to end plus the per-layer ledger.  bench/run.py puts src/
# on its own path; see bench/README.md.
repo-bench:
	$(PYTHON) bench/run.py --trace --out bench/out/result.json

# The benchmark's own self-test (~100 s; not part of tier-1, whose
# testpaths is tests/).
repo-bench-selftest:
	$(PYTHON) -m pytest bench/tests -q

# Compare two result files: make repo-bench-compare A=parent.json B=change.json
repo-bench-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make repo-bench-compare A=<result.json> B=<result.json>"; exit 2; }
	$(PYTHON) bench/run.py --compare $(A) $(B)

# Ten alternating parent/change pairs with medians, quartiles and wins —
# what a gain-claiming PR reports: make repo-bench-pairs PARENT=<ref> W=<workload>
repo-bench-pairs:
	@test -n "$(PARENT)" -a -n "$(W)" || { echo "usage: make repo-bench-pairs PARENT=<git-ref> W=<workload> [PAIRS=10] [SEED=\"2027 ...\"]"; exit 2; }
	$(PYTHON) tools/bench_pairs.py --parent $(PARENT) --workload $(W) --pairs $(or $(PAIRS),10) --seed $(or $(SEED),2027)

# Physical and code lines per src/repro package, and for the two replay
# modules; fails over LOC_BUDGET physical lines (ROADMAP aim 2: each PR
# lowers it to what it reached, none raises it).
LOC_BUDGET = 15918
loc:
	$(PYTHON) tools/loc.py --max-physical $(LOC_BUDGET)

# Which src/repro functions and arms the product entry points run and
# which options they set, in one sys.settrace pass; fails unless
# tests/reach_allowlist.txt names exactly the functions none reaches, the
# never-run arms of the ones they do (raise-only guards aside) with a test
# that runs each, and the options none sets (~20 s).
reach:
	$(PYTHON) tools/reach.py --check

experiments:
	$(PYTHON) -m repro.experiments all --out results/

charts:
	$(PYTHON) -m repro.experiments all --out results/ --svg charts/

lint-clean:
	find . -name __pycache__ -type d -exec rm -rf {} + 2>/dev/null || true
	rm -rf .pytest_cache .hypothesis

all: test experiments
