.PHONY: all build check test goldens decode-pin bench serve-bench experiments serve-trace-demo crash-demo trace-demo fuzz-smoke fuzz prove-smoke prove clean

all: build

build:
	dune build

check: build
	dune runtest

test: check

# Regenerate every golden reference the test executables write when
# LFI_GOLDEN_OUT names the file (ISA encode/decode, emulator, per-form
# instruction semantics, ELF, rewriter and verifier output) and the
# prover's smoke report, then review the change with `git diff test/`.
# A golden redefines what the tests accept, so refresh them only
# deliberately.
goldens: build
	LFI_GOLDEN_OUT=$(CURDIR)/test/encode_golden.txt dune exec test/test_arm64.exe
	LFI_GOLDEN_OUT=$(CURDIR)/test/emulator_golden.txt dune exec test/test_emulator.exe
	LFI_GOLDEN_OUT=$(CURDIR)/test/insn_golden.txt dune exec test/test_emulator.exe
	LFI_GOLDEN_OUT=$(CURDIR)/test/elf_golden.txt dune exec test/test_pipeline.exe
	LFI_GOLDEN_OUT=$(CURDIR)/test/rewrite_golden.txt dune exec test/test_pipeline.exe
	LFI_GOLDEN_OUT=$(CURDIR)/test/verify_golden.txt dune exec test/test_pipeline.exe
	dune exec bin/lfi_prove.exe -- --json $(CURDIR)/test/prove_golden.json

# Exhaustive decode pin: decode all 2^32 words (about 4 CPU-minutes),
# op0 0-7 and 8-f in two parallel processes, and rewrite
# test/decode_pin_expected.txt; review the change with `git diff`.
# Like a golden, it redefines what the decoder must do.
decode-pin:
	dune build test/decode_pin.exe
	set -e; \
	./_build/default/test/decode_pin.exe 0 1 2 3 4 5 6 7 > decode_pin_lo.txt & lo=$$!; \
	./_build/default/test/decode_pin.exe 8 9 a b c d e f > decode_pin_hi.txt; \
	wait $$lo; \
	cat decode_pin_lo.txt decode_pin_hi.txt > test/decode_pin_expected.txt; \
	rm decode_pin_lo.txt decode_pin_hi.txt

# Full experiment suite: every table and figure of the paper's
# evaluation (E1-E9 and CoreMark).
bench:
	dune exec bin/lfi_bench.exe

# Library-serving benchmark: replay a seeded request stream through a
# pool of warm sandboxed-library instances and commit the lfi-serve/v3
# report plus the lfi-snap/v2 snapshot stream; --suite appends the
# multi-tenant scale runs (open + closed loop at 256 slots / 4
# tenants, the knee sweep, the measured yield_to handoff cost) and
# writes the knee-sweep artifact. The stream and every number in all
# three files are a pure function of the seed, so they are
# byte-stable; CI re-runs this and diffs them.
serve-bench:
	dune exec bin/lfi_serve.exe -- --workload xzbox --requests 1000 \
	  --pool 4 --seed 1 --json BENCH_serve.json \
	  --snapshot=BENCH_serve_snap.jsonl --snapshot-every 250 \
	  --suite --knee-json BENCH_serve_knee.json

# Deterministic experiment suite: the stdout of every experiment but
# E6 (verifier throughput, which is wall clock) - E1-E5, E7-E9 and
# CoreMark, all simulated cycles - written to a committed file, and
# the simulated benchmark record BENCH_emulator.json (insns, simulated
# cycles, cache and block-engine stats, percent over native and
# rewriter/verifier counts on mcf and xz under both uarch models).  CI
# re-runs this and diffs both files, so a change that moves any
# simulated number shows up as a diff.  Host speed is measured by
# perfbench (BENCHMARK.json).
experiments:
	dune exec bin/lfi_bench.exe -- --json BENCH_emulator.json fig3 fig4 \
	  codesize fig5 table5 ablation spectre serve coremark \
	  > test/experiments_golden.txt

# Serving observability demo: serve the slowbox workload (whose rare
# `grind` export deliberately blows its latency SLO), writing a
# Perfetto trace with one track per pool slot and one slice per
# request phase, plus a snapshot stream for lfi_top.
serve-trace-demo:
	dune exec bin/lfi_serve.exe -- --workload slowbox --requests 400 \
	  --pool 4 --seed 7 --trace serve_trace.json \
	  --snapshot=serve_snap.jsonl --snapshot-every 50 --json /dev/null
	@echo "wrote serve_trace.json (open in https://ui.perfetto.dev)"
	@echo "view the run: dune exec bin/lfi_top.exe -- serve_snap.jsonl --replay"

# Deliberately crash the `crashy` workload (wild read into the guard
# region) and emit the postmortem crash report: text on stderr, JSON
# in postmortem_crash.json. The kill is the point, so tolerate it.
crash-demo:
	dune exec bin/lfi_run.exe -- --workload crashy \
	  --postmortem=postmortem_crash.json || true
	@echo "wrote postmortem_crash.json"

# Perfetto-loadable Chrome trace of a coremark run (plus a metrics
# snapshot). Coremark exits with its checksum, so tolerate exit != 0.
trace-demo:
	dune exec bin/lfi_run.exe -- --workload coremark \
	  --trace trace_coremark.json --metrics metrics_coremark.json || true
	@echo "wrote trace_coremark.json (open in https://ui.perfetto.dev)"

# Fixed-seed differential fuzzing smoke: all three engines, >=500
# cases each, deterministic, plus the weakened-verifier oracle demo.
# Zero failures expected; finishes in well under a minute.
fuzz-smoke:
	dune exec bin/lfi_fuzz.exe -- all --seed 0 --count 500 --minic 40
	dune exec bin/lfi_fuzz.exe -- --demo-weakened

# Symbolic soundness gate: every instruction the verifier accepts
# (smoke strata) must carry a symbolic proof that it preserves the
# sandbox invariant — zero holes expected — and every deliberate
# verifier weakening must surface a hole the escape oracle confirms.
# Deterministic and fast; runs on every push.
prove-smoke:
	dune exec bin/lfi_prove.exe
	dune exec bin/lfi_prove.exe -- --demo-weakened

# Full per-instruction enumeration (nightly): ~140M candidate encodings,
# every register number in every register field, still zero holes
# expected; writes the byte-stable lfi-prove/v1 report.
prove:
	dune exec bin/lfi_prove.exe -- --full --json PROVE_full.json

# Long fuzzing run (nightly): a different seed per day, large counts.
# Minimized repros for any failure land in test/corpus/repro_*.s and
# replay under `dune runtest` from then on.
FUZZ_SEED ?= $(shell date +%Y%m%d)
fuzz:
	dune exec bin/lfi_fuzz.exe -- all --seed $(FUZZ_SEED) --count 20000 --minic 400

clean:
	dune clean
