# Tier-1 verification gate: everything must build, every test suite must
# pass, the PlanCheck linter must report zero errors over every workload
# query, and the CLI must execute one LDBC query end-to-end on the pipelined
# engine and print its per-operator trace.
.PHONY: check build test lint trace

build:
	dune build

test:
	dune runtest

# Static analysis: parse, lower and plan every workload query with the plan
# verifier enabled at every optimizer stage; exits non-zero on any error.
lint:
	dune exec bin/gopt_cli.exe -- --lint --persons 200

trace:
	dune exec bin/gopt_cli.exe -- --persons 300 --workload IC6 --analyze

check: build test lint trace
	@echo "check: OK"
