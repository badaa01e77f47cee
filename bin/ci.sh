#!/bin/sh
# Repository CI: full build, test suite, formatting (when available),
# and an end-to-end smoke run of the static-analysis experiment.
#
#   ./bin/ci.sh
#
# Exits non-zero on the first failure.
set -e

cd "$(dirname "$0")/.."

# every step's scratch files live under one directory, removed on any exit
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "== dune build"
dune build

echo "== dune runtest"
dune runtest

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt"
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed)"
fi

echo "== figsa smoke run (scale 0.05)"
dune exec bin/mdabench.exe -- figsa --scale 0.05

# 410.bwaves --selfcheck under every -m label is pinned by the run-bwaves-*
# goldens of dune runtest
echo "== selfcheck smoke run"
dune exec bin/mdabench.exe -- run 453.povray -m dpeh --scale 0.05 --selfcheck >/dev/null

echo "== mechanism tour example (every mechanism through the run driver)"
dune exec examples/mechanism_tour.exe -- 410.bwaves 0.05 >/dev/null

echo "== translation-validation gate (mdabench verify)"
dune exec bin/mdabench.exe -- verify --scale 0.05 --jobs 2

echo "== peephole gate: re-prove committed rules, kill ratio with the tier"
# every committed rule's equivalence proof is replayed from scratch; a
# rule the validator can no longer prove fails CI
dune exec bin/mdabench.exe -- mine --replay rules/pr8.rules || {
  echo "FAIL: committed peephole rules no longer prove"; exit 1; }
# seeded mutation harness with the rewrite tier enabled: the validator
# must still kill >= 95% of semantic mutants of the rewritten cache
dune exec bin/mdabench.exe -- mine --kill-check examples/asm/killable.asm \
  --rules rules/pr8.rules --seed 7 >/dev/null || {
  echo "FAIL: mutation kill ratio below 95% with the peephole tier"; exit 1; }
# rewritten caches still pass the full validator + invariant checker
dune exec bin/mdabench.exe -- run 164.gzip -m direct --scale 0.05 \
  --rules rules/pr8.rules --selfcheck --validate >/dev/null || {
  echo "FAIL: run gate with peephole tier"; exit 1; }
dune exec bin/mdabench.exe -- aot 164.gzip --scale 0.05 \
  --rules rules/pr8.rules --validate >/dev/null || {
  echo "FAIL: aot gate with peephole tier"; exit 1; }
dune exec bin/mdabench.exe -- verify --scale 0.05 --jobs 2 \
  --rules rules/pr8.rules >/dev/null || {
  echo "FAIL: verify gate with peephole tier"; exit 1; }

echo "== benchmark suite: translate-corpus and serve-mix, every oracle check"
# exit 0 means every check passed and every end-to-end metric was
# measured; the figures are printed, not gated — one run cannot tell a
# regression from host noise, so regressions are judged by the
# multi-pair `suite.exe compare` that bench/suite/README.md describes
dune exec bench/suite/suite.exe -- --workload translate-corpus \
  --workload serve-mix --out "$WORK/suite.json" || {
  echo "FAIL: benchmark suite (failed check or missing metric)"; exit 1; }

echo "== AOT gate: oracle differential + validator, both unknown-site policies"
# `mdabench aot` checks the static translation of the whole image
# against the pure-interpreter oracle (registers + memory digest), that
# zero runtime translations/patches touched the immutable cache, and
# (--validate) that every AOT-emitted translation passes the symbolic
# validator. Exit code 2 on any failure. All 21 Table-I workloads plus
# the interprocedural stack microbenchmark, under both unknown-site
# policies.
TABLE1="164.gzip 252.eon 178.galgel 179.art 188.ammp 200.sixtrack \
400.perlbench 464.h264ref 471.omnetpp 483.xalancbmk 410.bwaves 433.milc \
434.zeusmp 435.gromacs 437.leslie3d 450.soplex 453.povray 454.calculix \
465.tonto 470.lbm 482.sphinx3"
for B in $TABLE1 stack.frames; do
  for POLICY in seq eh; do
    dune exec bin/mdabench.exe -- aot "$B" --scale 0.05 -m "$POLICY" --validate >/dev/null || {
      echo "FAIL: aot gate ($B, $POLICY)"; exit 1; }
  done
done

echo "== AOT gate: census deterministic, verify byte-identical across --jobs"
mkdir "$WORK/aot"
dune exec bin/mdabench.exe -- analyze 164.gzip --compare >"$WORK/aot/census1.txt" 2>/dev/null
dune exec bin/mdabench.exe -- analyze 164.gzip --compare >"$WORK/aot/census2.txt" 2>/dev/null
cmp "$WORK/aot/census1.txt" "$WORK/aot/census2.txt" || {
  echo "FAIL: mdabench analyze output is not deterministic"; exit 1; }
dune exec bin/mdabench.exe -- verify -m aot --scale 0.05 --jobs 1 \
  --benchmarks 164.gzip,410.bwaves,stack.frames >"$WORK/aot/verify-j1.txt" 2>/dev/null
dune exec bin/mdabench.exe -- verify -m aot --scale 0.05 --jobs 4 \
  --benchmarks 164.gzip,410.bwaves,stack.frames >"$WORK/aot/verify-j4.txt" 2>/dev/null
cmp "$WORK/aot/verify-j1.txt" "$WORK/aot/verify-j4.txt" || {
  echo "FAIL: aot verify output differs across --jobs levels"; exit 1; }

echo "== tracing gate: zero-cost-when-off, replay reconstructs every mechanism"
mkdir "$WORK/trace"
# tracing is a pure observation artifact: stdout (statistics included)
# must be byte-identical with and without --trace-out
dune exec bin/mdabench.exe -- run 410.bwaves -m eh --scale 0.05 \
  >"$WORK/trace/plain.txt" 2>/dev/null
dune exec bin/mdabench.exe -- run 410.bwaves -m eh --scale 0.05 \
  --trace-out "$WORK/trace/run.jsonl" >"$WORK/trace/traced.txt" 2>/dev/null
cmp "$WORK/trace/plain.txt" "$WORK/trace/traced.txt" || {
  echo "FAIL: --trace-out changed the run's stdout"; exit 1; }
# the interpreter's trace has no events, but must still be written and replay
dune exec bin/mdabench.exe -- run 410.bwaves -m interp --scale 0.05 \
  --trace-out "$WORK/trace/interp.jsonl" >/dev/null 2>&1
dune exec bin/mdabench.exe -- trace --replay "$WORK/trace/interp.jsonl" >/dev/null || {
  echo "FAIL: replay gate failed for run -m interp"; exit 1; }
# the same for serve, whose footer is the scheduler's aggregate statistics
SERVE="serve --tenants 3 --sessions 2 --seed 42 --storm 2 --noisy 1"
dune exec bin/mdabench.exe -- $SERVE >"$WORK/trace/serve-plain.txt" 2>/dev/null
dune exec bin/mdabench.exe -- $SERVE --trace-out "$WORK/trace/serve.jsonl" \
  >"$WORK/trace/serve-traced.txt" 2>/dev/null
cmp "$WORK/trace/serve-plain.txt" "$WORK/trace/serve-traced.txt" || {
  echo "FAIL: --trace-out changed serve's stdout"; exit 1; }
dune exec bin/mdabench.exe -- trace --replay "$WORK/trace/serve.jsonl" >/dev/null || {
  echo "FAIL: replay gate failed for serve"; exit 1; }
# every mechanism's trace must replay to the exact recorded statistics
for MECH in direct static dynamic eh dpeh sa aot; do
  dune exec bin/mdabench.exe -- trace 410.bwaves -m "$MECH" --scale 0.05 \
    --out "$WORK/trace/$MECH.jsonl" >/dev/null 2>&1
  dune exec bin/mdabench.exe -- trace --replay "$WORK/trace/$MECH.jsonl" >/dev/null || {
    echo "FAIL: replay gate failed for $MECH"; exit 1; }
done
dune exec bin/mdabench.exe -- hot 410.bwaves -m eh --scale 0.05 --top 5 >/dev/null

echo "== chaos gate: 20 fault plans x 7 mechanisms against the oracle"
dune exec bin/mdabench.exe -- chaos --seed 42 --plans 20 --jobs 2 >/dev/null || {
  echo "FAIL: chaos gate"; exit 1; }

echo "== serve gate: report jobs-invariant, 10-plan serve chaos battery"
mkdir "$WORK/serve"
# the aggregate multi-tenant report is a pure function of (specs,
# config): fanning the isolated baselines over more workers must not
# move a byte of it
dune exec bin/mdabench.exe -- serve --tenants 3 --sessions 2 --seed 42 \
  --storm 2 --noisy 1 --jobs 1 >"$WORK/serve/serve-j1.txt" 2>/dev/null
dune exec bin/mdabench.exe -- serve --tenants 3 --sessions 2 --seed 42 \
  --storm 2 --noisy 1 --jobs 3 >"$WORK/serve/serve-j3.txt" 2>/dev/null
cmp "$WORK/serve/serve-j1.txt" "$WORK/serve/serve-j3.txt" || {
  echo "FAIL: serve report differs across --jobs levels"; exit 1; }
# tenant churn, injected crashes, noisy neighbours and trap storms under
# every non-AOT mechanism, against per-tenant pure-interpreter oracles
dune exec bin/mdabench.exe -- chaos --serve --seed 42 --plans 10 --jobs 2 >/dev/null || {
  echo "FAIL: serve chaos gate"; exit 1; }

echo "== assembler gate: roundtrip fuzz, examples through every runner"
mkdir "$WORK/asm"
# 10k seeded streams per ISA through insn -> pretty -> parse -> encode
# -> decode -> insn; any mismatch writes a minimised reproducer and fails
dune exec bin/mdabench.exe -- fuzz-asm --seed 7 --streams 10000 \
  --repro-out "$WORK/asm/repro.asm" || {
  echo "FAIL: fuzz-asm found a roundtrip mismatch"; exit 1; }
# the committed examples assemble, decode back byte-identically, and the
# tour listing matches its golden disassembly
dune exec bin/mdabench.exe -- asm examples/asm/tour.asm >/dev/null || {
  echo "FAIL: tour.asm does not assemble"; exit 1; }
dune exec bin/mdabench.exe -- asm examples/asm/stack.asm >/dev/null || {
  echo "FAIL: stack.asm does not assemble"; exit 1; }
dune exec bin/mdabench.exe -- disasm examples/asm/tour.asm 2>/dev/null \
  | tail -n +2 >"$WORK/asm/tour-disasm.txt"
cmp "$WORK/asm/tour-disasm.txt" test/golden/disasm-tour.txt || {
  echo "FAIL: tour.asm disassembly differs from test/golden/disasm-tour.txt"; exit 1; }
# a hand-written workload flows through every runner against the oracle
dune exec bin/mdabench.exe -- run examples/asm/tour.asm -m eh \
  --selfcheck --validate >/dev/null || {
  echo "FAIL: run gate (tour.asm)"; exit 1; }
dune exec bin/mdabench.exe -- aot --program examples/asm/tour.asm --validate >/dev/null || {
  echo "FAIL: aot gate (tour.asm)"; exit 1; }
dune exec bin/mdabench.exe -- verify --program examples/asm/tour.asm --jobs 2 >/dev/null || {
  echo "FAIL: verify gate (tour.asm)"; exit 1; }
dune exec bin/mdabench.exe -- chaos --program examples/asm/tour.asm \
  --plans 5 --seed 7 --jobs 2 >/dev/null || {
  echo "FAIL: chaos gate (tour.asm)"; exit 1; }
# a guest store outside simulated memory is a typed fault: exit 3 and
# a one-line diagnostic, never an uncaught exception
rc=0
dune exec bin/mdabench.exe -- run --program examples/asm/wild_store.asm -m direct \
  >/dev/null 2>"$WORK/asm/wild.err" || rc=$?
[ "$rc" -eq 3 ] && [ "$(wc -l <"$WORK/asm/wild.err")" -eq 1 ] || {
  echo "FAIL: wild_store.asm exited $rc (want 3) with stderr:"; cat "$WORK/asm/wild.err"; exit 1; }

echo "== bounded-cache table1 is byte-identical to the unbounded run"
mkdir "$WORK/bound"
# table1 is interpreter ground truth: a code-cache bound on the
# translator must not move a single byte of it
dune exec bin/mdabench.exe -- table1 --scale 0.05 --no-cache \
  --benchmarks 164.gzip,410.bwaves >"$WORK/bound/unbounded.txt" 2>/dev/null
dune exec bin/mdabench.exe -- table1 --scale 0.05 --no-cache \
  --benchmarks 164.gzip,410.bwaves --cache-capacity 64 >"$WORK/bound/bounded.txt" 2>/dev/null
cmp "$WORK/bound/unbounded.txt" "$WORK/bound/bounded.txt" || {
  echo "FAIL: --cache-capacity changed table1's stdout"; exit 1; }

echo "== parallel 'all' smoke run with result cache (scale 0.05)"
mkdir "$WORK/cache" "$WORK/all"
dune exec bin/mdabench.exe -- all --jobs 2 --scale 0.05 \
  --benchmarks 164.gzip,410.bwaves,188.ammp \
  --cache-dir "$WORK/cache" >"$WORK/all/cold.txt" 2>"$WORK/all/cold.err"
dune exec bin/mdabench.exe -- all --jobs 2 --scale 0.05 \
  --benchmarks 164.gzip,410.bwaves,188.ammp \
  --cache-dir "$WORK/cache" >"$WORK/all/warm.txt" 2>"$WORK/all/warm.err"

echo "== cached re-run simulates nothing, serves 100% from cache, is byte-identical"
cmp "$WORK/all/cold.txt" "$WORK/all/warm.txt" || {
  echo "FAIL: warm-cache output differs from cold run"; exit 1; }
PCT=$(sed -n 's/.*cache-served=\([0-9]*\)%.*/\1/p' "$WORK/all/warm.err" | tail -1)
ALL_WARM=$(sed -n 's/.*all:.*cells (\([0-9]*\) computed.*/\1/p' "$WORK/all/warm.err" | tail -1)
echo "cache-served=${PCT:-?}% warm computed=${ALL_WARM:-?}"
[ -n "$PCT" ] && [ "$PCT" -ge 100 ] && [ "$ALL_WARM" = 0 ] || {
  echo "FAIL: warm run served ${PCT:-0}% from cache and computed ${ALL_WARM:-?} cells (need 100% and 0)"
  cat "$WORK/all/warm.err"; exit 1; }

echo "== flush ablation runs are cells: computed cold, served warm"
FLUSH_COLD=$(sed -n 's/.*ablate-flush:.*cells: \([0-9]*\) computed.*/\1/p' "$WORK/all/cold.err" | tail -1)
FLUSH_WARM=$(sed -n 's/.*ablate-flush:.*cells: \([0-9]*\) computed.*/\1/p' "$WORK/all/warm.err" | tail -1)
echo "ablate-flush computed: cold=${FLUSH_COLD:-?} warm=${FLUSH_WARM:-?}"
[ "$FLUSH_COLD" = 8 ] && [ "$FLUSH_WARM" = 0 ] || {
  echo "FAIL: ablate-flush must compute 8 cells cold (4 phase counts x 2 policies) and 0 warm"
  cat "$WORK/all/cold.err" "$WORK/all/warm.err"; exit 1; }

echo "== trap-cost ablation simulates only Figure 16's default-cost cells"
TRAP_COLD=$(sed -n 's/.*ablate-trapcost:.*cells: \([0-9]*\) computed.*/\1/p' "$WORK/all/cold.err" | tail -1)
TRAP_WARM=$(sed -n 's/.*ablate-trapcost:.*cells: \([0-9]*\) computed.*/\1/p' "$WORK/all/warm.err" | tail -1)
echo "ablate-trapcost computed: cold=${TRAP_COLD:-?} warm=${TRAP_WARM:-?}"
[ "$TRAP_COLD" = 12 ] && [ "$TRAP_WARM" = 0 ] || {
  echo "FAIL: ablate-trapcost must compute 12 cells cold (3 benchmarks x 4 mechanisms) and 0 warm"
  cat "$WORK/all/cold.err" "$WORK/all/warm.err"; exit 1; }

echo "CI OK"
