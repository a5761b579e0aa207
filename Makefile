# Tier-1 verification gate: everything must build, every test suite must
# pass, the PlanCheck linter must report zero errors over every workload
# query, the bench harness must execute one LDBC query end-to-end on the
# pipelined engine and print its per-operator trace, and the plan-cache
# experiment must complete on a tiny graph.
.PHONY: check build test lint trace bench-smoke

build:
	dune build

test:
	dune runtest

# Static analysis: parse, lower and plan every workload query with the plan
# verifier enabled at every optimizer stage; exits non-zero on any error.
lint:
	dune exec bin/gopt_cli.exe -- --lint --persons 200

trace:
	GOPT_BENCH_PERSONS=300 GOPT_BENCH_BUDGET=5 dune exec bench/main.exe -- trace

# One repetition of the plan-cache and vectorized-execution experiments on a
# tiny graph: cold vs amortized latency over all 50 workload queries with
# workers-1-vs-4 byte-identity, then compiled predicate kernels vs the row
# interpreter over the same chunks (identical survivors asserted). Emits
# BENCH_plan_cache.json and BENCH_exec.json.
bench-smoke:
	GOPT_BENCH_PERSONS=60 GOPT_BENCH_BUDGET=2 GOPT_BENCH_CACHE_CONSULTS=50 \
	  dune exec bench/main.exe -- plan_cache
	GOPT_BENCH_PERSONS=300 GOPT_BENCH_BUDGET=5 \
	  dune exec bench/main.exe -- vectorized

check: build test lint trace bench-smoke
	@echo "check: OK"
