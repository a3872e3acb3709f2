# Single entry point for CI and local hygiene: `make check` runs the
# build, the test battery (which includes the model-conformance checks),
# the source lint (shallow and deep), the formatting check, the smoke
# runs and the benchmark's self-test.

DUNE ?= dune

.PHONY: check build test lint lint-deep lint-effects lint-ranges \
  lint-partiality lint-sarif fmt resilience-smoke mc-smoke par-smoke \
  churn-smoke serve-smoke bench-selftest bench-churn bench-parallel \
  bench-serve clean

# lint-deep implies --effects, --ranges and --partiality over a superset of
# their roots, so check runs each analysis once, through lint-deep; the
# three single-analysis targets stay for standalone use.
check: build test lint lint-deep fmt resilience-smoke mc-smoke par-smoke \
  churn-smoke serve-smoke bench-selftest

build:
	$(DUNE) build

test:
	$(DUNE) runtest

lint:
	$(DUNE) exec tools/lint/radiolint.exe -- lib

# AST + interprocedural taint analysis, gated on the committed baseline:
# fails on any finding not grandfathered in .radiolint-baseline.
lint-deep:
	$(DUNE) exec tools/lint/radiolint.exe -- --deep \
	  --baseline .radiolint-baseline lib bin

# Interprocedural effect-and-escape analysis on its own (lint-deep already
# implies it): every Pool task closure must stay <= LocalMut on the effect
# lattice (docs/LINTING.md).
lint-effects:
	$(DUNE) exec tools/lint/radiolint.exe -- --effects \
	  --baseline .radiolint-baseline lib

# Value-range abstract interpretation on its own (lint-deep already
# implies it): overflow in shift/multiply chains, lossy truncations and
# unguarded unsafe_get/unsafe_set indexes on the packed-state hot paths.
lint-ranges:
	$(DUNE) exec tools/lint/radiolint.exe -- --ranges \
	  --baseline .radiolint-baseline lib

# Exception-escape analysis on its own (lint-deep already implies it):
# which exceptions reach each CLI entry in bin/ and each Pool task
# closure unhandled.
lint-partiality:
	$(DUNE) exec tools/lint/radiolint.exe -- --partiality \
	  --baseline .radiolint-baseline lib bin

# SARIF 2.1.0 report for CI annotation viewers.
lint-sarif:
	$(DUNE) exec tools/lint/radiolint.exe -- --deep \
	  --baseline .radiolint-baseline --sarif radiolint.sarif lib bin

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) build @fmt; \
	else \
	  echo "fmt: ocamlformat not installed; skipping formatting check"; \
	fi

# End-to-end fault tolerance: sweep crash intensity on a catalog family
# through the real CLI.  Everything is seeded, so the curve (and its csv)
# is byte-for-byte reproducible.
resilience-smoke:
	@tmp=$$(mktemp); \
	$(DUNE) exec bin/anorad.exe -- catalog h2 > $$tmp && \
	$(DUNE) exec bin/anorad.exe -- resilience $$tmp --trials 10; \
	status=$$?; rm -f $$tmp; exit $$status

# Bounded model checking end to end: the differential oracle over every
# connected configuration with n <= 4 (with concrete engine replay of each
# extracted trace), a verified family run with a SARIF artifact, and a
# seeded mutant that must produce exit code 1 with a counterexample.
mc-smoke:
	@tmp=$$(mktemp); sarif=$$(mktemp); status=0; \
	$(DUNE) exec bin/anorad.exe -- mc --oracle 4 --replay && \
	$(DUNE) exec bin/anorad.exe -- family h 2 > $$tmp && \
	$(DUNE) exec bin/anorad.exe -- mc $$tmp --replay --sarif $$sarif && \
	grep -q '"results":\[\]' $$sarif || status=1; \
	if [ $$status -eq 0 ]; then \
	  $(DUNE) exec bin/anorad.exe -- mc $$tmp \
	    --protocol mutant-greedy-decision > /dev/null; \
	  [ $$? -eq 1 ] || status=1; \
	fi; \
	if [ $$status -eq 0 ]; then \
	  par=$$(mktemp); \
	  $(DUNE) exec bin/anorad.exe -- mc $$tmp \
	    --explore --faults 1 --depth 6 --jobs 1 > $$sarif && \
	  $(DUNE) exec bin/anorad.exe -- mc $$tmp \
	    --explore --faults 1 --depth 6 --jobs 2 > $$par && \
	  cmp -s $$sarif $$par || { \
	    echo "mc-smoke: parallel explore differs from sequential"; \
	    status=1; }; \
	  rm -f $$par; \
	fi; \
	rm -f $$tmp $$sarif; exit $$status

# Parallel determinism end to end: the same sweep at --jobs 1 and --jobs 2
# must be byte-for-byte identical through the real CLI (docs/PARALLEL.md),
# both for the census and for the model-checker oracle.  The runs are
# sequential on purpose: two concurrent `dune exec` invocations contend on
# the build lock.
par-smoke:
	@a=$$(mktemp); b=$$(mktemp); status=0; \
	$(DUNE) exec bin/anorad.exe -- census --max-n 3 --jobs 1 > $$a && \
	$(DUNE) exec bin/anorad.exe -- census --max-n 3 --jobs 2 > $$b && \
	cmp -s $$a $$b || status=1; \
	if [ $$status -eq 0 ]; then \
	  $(DUNE) exec bin/anorad.exe -- mc --oracle 3 --jobs 1 > $$a && \
	  $(DUNE) exec bin/anorad.exe -- mc --oracle 3 --jobs 2 > $$b && \
	  cmp -s $$a $$b || status=1; \
	fi; \
	rm -f $$a $$b; \
	if [ $$status -ne 0 ]; then \
	  echo "par-smoke: parallel output differs from sequential"; \
	fi; exit $$status

# Churn determinism end to end: a tiny scripted flap run replayed twice
# must print byte-identical reports, the incremental oracle must agree at
# --jobs 1 and 2, and the quick E21 series (generated in a scratch
# directory so the committed BENCH_churn.json is untouched) must be
# byte-identical at --jobs 1 and 2.
churn-smoke:
	@cfg=$$(mktemp); plan=$$(mktemp); a=$$(mktemp); b=$$(mktemp); \
	dir=$$(mktemp -d); status=0; \
	$(DUNE) exec bin/anorad.exe -- catalog h2 > $$cfg && \
	printf 'faults\nlink-down 0 1 6\nlink-up 0 1 10\nleave 0 20\njoin 0 26 1\n' > $$plan && \
	$(DUNE) exec bin/anorad.exe -- churn $$cfg --plan $$plan --horizon 48 > $$a && \
	$(DUNE) exec bin/anorad.exe -- churn $$cfg --plan $$plan --horizon 48 > $$b && \
	cmp -s $$a $$b || status=1; \
	if [ $$status -eq 0 ]; then \
	  $(DUNE) exec bin/anorad.exe -- churn $$cfg --oracle 4 --jobs 1 > $$a && \
	  $(DUNE) exec bin/anorad.exe -- churn $$cfg --oracle 4 --jobs 2 > $$b && \
	  cmp -s $$a $$b || status=1; \
	fi; \
	if [ $$status -eq 0 ]; then \
	  $(DUNE) build bench/main.exe && \
	  (cd $$dir && \
	   $(CURDIR)/_build/default/bench/main.exe churn --quick --jobs 1 > /dev/null && \
	   mv BENCH_churn.json jobs1.json && \
	   $(CURDIR)/_build/default/bench/main.exe churn --quick --jobs 2 > /dev/null && \
	   cmp -s jobs1.json BENCH_churn.json) || status=1; \
	fi; \
	rm -rf $$cfg $$plan $$a $$b $$dir; \
	if [ $$status -ne 0 ]; then \
	  echo "churn-smoke: churn replay is not byte-identical"; \
	fi; exit $$status

# Serve determinism end to end: a request script covering every request
# kind (plus a malformed line) through `anorad serve --stdio` must render
# byte-identical responses at --jobs 1 and --jobs 2, with the cache
# disabled, and on a warm replay (the stream is fed twice and the second
# half compared against the first run) — the headline invariant of
# docs/SERVE.md.
serve-smoke:
	@script=$$(mktemp); a=$$(mktemp); b=$$(mktemp); status=0; \
	cfg='config 4\ntags 2 0 0 3\n0 1\n1 2\n2 3\n'; \
	printf '%s\n' \
	  '{"id":1,"kind":"classify","config":"'"$$cfg"'"}' \
	  '{"id":2,"kind":"elect","config":"'"$$cfg"'"}' \
	  '{"id":3,"kind":"simulate","config":"'"$$cfg"'"}' \
	  '{"id":4,"kind":"mc-check","config":"'"$$cfg"'"}' \
	  'not json at all' \
	  '{"id":5,"kind":"stats"}' > $$script; \
	$(DUNE) build bin/anorad.exe && \
	./_build/default/bin/anorad.exe serve --stdio --jobs 1 \
	  < $$script > $$a 2>/dev/null && \
	./_build/default/bin/anorad.exe serve --stdio --jobs 2 \
	  < $$script > $$b 2>/dev/null && \
	cmp -s $$a $$b || { \
	  echo "serve-smoke: --jobs 2 differs from --jobs 1"; status=1; }; \
	if [ $$status -eq 0 ]; then \
	  ./_build/default/bin/anorad.exe serve --stdio --cache-entries 0 \
	    < $$script > $$b 2>/dev/null && \
	  cmp -s $$a $$b || { \
	    echo "serve-smoke: cache disabled differs from cached"; status=1; }; \
	fi; \
	if [ $$status -eq 0 ]; then \
	  sed '/"kind":"stats"/d' $$script > $$b && \
	  cat $$b $$b | ./_build/default/bin/anorad.exe serve --stdio \
	    > $$a 2>/dev/null && \
	  half=$$(sed '/"kind":"stats"/d' $$a | wc -l); \
	  sed '/"kind":"stats"/d' $$a | head -n $$((half / 2)) > $$b; \
	  sed '/"kind":"stats"/d' $$a | tail -n $$((half / 2)) > $$script; \
	  cmp -s $$b $$script || { \
	    echo "serve-smoke: warm replay differs from cold run"; status=1; }; \
	fi; \
	rm -f $$script $$a $$b; exit $$status

# The benchmark's own answer checks (perfbench/selftest.py): a corrupted,
# wrong, missing or fatal serve response must count as exactly one failed
# op.  Runs in about a second against a scripted stand-in daemon.
bench-selftest:
	python3 perfbench/selftest.py

# E22 only: regenerate the serve series (BENCH_serve.json) in the working
# directory.
bench-serve:
	$(DUNE) exec bench/main.exe -- serve

# E21 only: regenerate the churn series (BENCH_churn.json) in the working
# directory.
bench-churn:
	$(DUNE) exec bench/main.exe -- churn

# E20 only: sequential-vs-parallel wall clock per workload, written to
# BENCH_parallel.json in the working directory.
bench-parallel:
	$(DUNE) exec bench/main.exe -- par

clean:
	$(DUNE) clean
