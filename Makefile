.PHONY: all build test check golden clean repro quick sweep fuzz profile fault-matrix

all: build

build:
	dune build

test:
	dune runtest

# CI entry point: full build + every test suite, including the byte-exact
# goldens (test/golden/).
check:
	dune build
	dune runtest

# Accept an intended change to simulated output: regenerate the goldens,
# show the diff, and promote the fresh documents into test/golden/ so the
# change lands as a reviewable hunk.
golden:
	dune build @test/golden || dune promote

# Worker-domain count for sharded targets (sweep, fault-matrix).
# Output is byte-identical at any value; JOBS=1 is the determinism control.
JOBS ?= 1

# Reproduce the paper's evaluation (quick preset).
quick:
	dune exec bin/repro.exe -- all --quick

repro:
	dune exec bin/repro.exe -- all

# Domain-sharded sweep of the full experiment matrix: one experiment per
# worker domain, reports merged in canonical order (byte-identical to
# sequential).  `make sweep JOBS=$(shell nproc)` on a multicore host.
sweep:
	dune exec bin/repro.exe -- sweep --quick -j $(JOBS)

# Cycle-attribution profile of a fixed-seed E1-style run: span breakdown,
# per-op latency percentiles and contention hot spots on stdout, plus
# profile.json (rerun later with `repro profile --diff profile.json`) and
# profile.folded (flamegraph.pl / speedscope input).
profile:
	dune exec bin/repro.exe -- profile --out profile.json --folded profile.folded

# Nightly fault matrix: E13 across every scheme x {no-fault, stall, crash}
# with the lifecycle sanitizer on; per-leg garbage curves land in
# fault-matrix/ as garbage_<scheme>_<fault>.json (CI uploads them).  The
# matrix legs shard across JOBS domains.
fault-matrix:
	mkdir -p fault-matrix
	dune exec bin/repro.exe -- run robustness --csv fault-matrix --sanitize \
	  -j $(JOBS)

# Nightly schedule fuzzing: random schedules through every scenario with the
# lifecycle sanitizer on; failing schedules are shrunk and written to
# fuzz-out/ as replayable JSON (`repro replay fuzz-out/FILE.json`).
# Override e.g. FUZZ_SECONDS=60 for a quick local run.  FUZZ_JOBS shards
# the fixed per-cell seed chunks across domains — findings are identical
# at any FUZZ_JOBS; only the wall-clock time-box makes runs non-identical.
FUZZ_SECONDS ?= 900
FUZZ_RUNS ?= 3000
FUZZ_JOBS ?= 1
fuzz:
	dune exec bin/repro.exe -- fuzz --seconds $(FUZZ_SECONDS) \
	  --max-runs $(FUZZ_RUNS) --out fuzz-out -j $(FUZZ_JOBS)

clean:
	dune clean
