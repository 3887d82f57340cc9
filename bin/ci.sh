#!/bin/sh
# CI entry point: build everything, run every suite, and re-check the
# shift-engine determinism contract with backtraces on.  The dev profile
# already treats warnings as errors, so a clean build is part of the gate.
set -eu
cd "$(dirname "$0")/.."

echo "== dune build @all"
dune build @all

echo "== fork/join lint (domains spawn only in Par_kernel and the daemon's Scheduler)"
# every parallel layer runs on Par_kernel.run_tasks; a second hand-written
# pool (spawn loop or atomic chunk counter) elsewhere under lib/ fails CI
STRAY=$(grep -rnE 'Domain\.spawn|Atomic\.fetch_and_add' lib \
    | grep -vE '^lib/la/(par_kernel|scheduler)\.ml:' || true)
if [ -n "$STRAY" ]; then
    echo "$STRAY" >&2
    echo "fork/join outside lib/la/par_kernel.ml and lib/la/scheduler.ml: use Par_kernel.run_tasks" >&2
    exit 1
fi

echo "== dune runtest"
OCAMLRUNPARAM=b dune runtest

echo "== shift-engine determinism"
OCAMLRUNPARAM=b dune exec test/test_shift_engine.exe -- test determinism

echo "== adaptive-sampling smoke bench"
OCAMLRUNPARAM=b dune exec bench/adaptive_bench.exe -- --smoke

echo "== variant-pipeline smoke bench (cross-Gramian pencil + variant determinism)"
OCAMLRUNPARAM=b dune exec bench/variants_bench.exe -- --smoke

echo "== dense-kernel smoke bench (GEMM/QR bitwise worker-invariance + Jacobi sigma drift)"
OCAMLRUNPARAM=b dune exec bench/dense_bench.exe -- --smoke

echo "== sweep-engine smoke bench (worker-invariance + replay/Hessenberg agreement)"
OCAMLRUNPARAM=b dune exec bench/sweep_bench.exe -- --smoke

echo "== low-rank Lyapunov smoke bench (LR-ADI vs dense agreement + handle reuse)"
OCAMLRUNPARAM=b dune exec bench/lyap_bench.exe -- --smoke

echo "== reduction-service smoke bench (warm/cold gate + tier counters + bitwise identity)"
OCAMLRUNPARAM=b dune exec bench/serve_bench.exe -- --smoke

echo "== realizable-ROM smoke bench (parse throughput + passive col-solve ratio + roundtrip)"
OCAMLRUNPARAM=b dune exec bench/export_bench.exe -- --smoke

echo "== hierarchical-reduction smoke bench (flat-vs-hier agreement + worker invariance)"
OCAMLRUNPARAM=b dune exec bench/hier_bench.exe -- --smoke

echo "== real-multicore lane (shift/sweep/hier smoke at 4 workers)"
# each bench asserts its pool really expanded past one domain, or prints
# a documented SKIP on single-core hosts (the correctness gates above
# run either way)
OCAMLRUNPARAM=b dune exec bench/shift_bench.exe -- --smoke --workers 4 --assert-multicore
OCAMLRUNPARAM=b dune exec bench/sweep_bench.exe -- --smoke --workers 4 --assert-multicore
OCAMLRUNPARAM=b dune exec bench/hier_bench.exe -- --smoke --workers 4 --assert-multicore
# the nested-dissection CLI path end to end: budget-driven recursive
# partitioning plus interface compression, fanned over 4 workers (pool
# collapses to 1 on a single-core host; the result is bitwise-identical
# either way, which is what the suites assert)
OCAMLRUNPARAM=b dune exec bin/pmtbr_cli.exe -- reduce --circuit rc-mesh --size 6 \
    --method hier --partition auto --max-part-states 20 --interface-tol 1e-8 \
    --samples 8 --tol 1e-10 --workers 4 --stats

echo "== CLI export roundtrip (tbr-passive reduce --export, file re-parsed and swept)"
EXPORT_NL=".ci_export_$$.sp"
rm -f "$EXPORT_NL"
dune exec bin/pmtbr_cli.exe -- reduce --circuit rc-mesh --size 6 --method tbr-passive \
    --order 8 --export "$EXPORT_NL"
[ -s "$EXPORT_NL" ] || { echo "export file missing or empty" >&2; exit 1; }
# the exported netlist is a valid circuit source in its own right
dune exec bin/pmtbr_cli.exe -- info --spice "$EXPORT_NL"
rm -f "$EXPORT_NL"

echo "== pmtbr batch against a missing daemon (one-line error, non-zero exit)"
if NO_DAEMON=$(dune exec bin/pmtbr_cli.exe -- batch --socket ".ci_no_daemon_$$.sock" --ping 2>&1)
then
    echo "batch against a missing socket exited 0" >&2; exit 1
fi
case "$NO_DAEMON" in
    *"uncaught exception"*) echo "$NO_DAEMON" >&2; echo "batch leaked an uncaught exception" >&2; exit 1 ;;
esac

echo "== reduction-service daemon round trip (pmtbr serve / pmtbr batch)"
SOCK=".ci_serve_$$.sock"
SERVE_PID=""
# a killed CI run must not leave a daemon or a stale socket behind
cleanup() {
    [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
    [ -n "$SERVE_PID" ] && wait "$SERVE_PID" 2>/dev/null || true
    rm -f "$SOCK"
}
trap cleanup EXIT INT TERM
dune exec bin/pmtbr_cli.exe -- serve --socket "$SOCK" --workers 2 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.1; done
[ -S "$SOCK" ] || { echo "daemon socket never appeared" >&2; exit 1; }
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --ping
# cold + warm repeats of one job: digests must agree, warm must be faster
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --circuit rc-mesh --size 6 \
    --band 0:2e10 --order 8 --samples 10 --repeat 3 --assert-warm-speedup 2
# incremental: new band on the same network reuses the prepared handle
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --circuit rc-mesh --size 6 \
    --band 1e8:1e10 --order 8 --samples 10
# hierarchical job: partitioned sampling tiers, repeated so the second
# run lands on warm per-subdomain sample caches
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --circuit rc-mesh --size 8 \
    --method hier --partition 2 --band 0:2e10 --order 8 --samples 8 --repeat 2
# the new dissection job fields over the wire: partition auto +
# max-part-states + interface-tol, repeated so the re-run re-finds every
# leaf's sample tier warm
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --circuit rc-mesh --size 8 \
    --method hier --partition auto --max-part-states 20 --interface-tol 1e-8 \
    --band 0:2e10 --order 8 --samples 8 --repeat 2
# a tbr-passive export job: the response body carries the synthesized
# netlist, which must re-parse as a circuit source
DAEMON_NL=".ci_daemon_export_$$.sp"
rm -f "$DAEMON_NL"
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --circuit rc-mesh --size 6 \
    --method tbr-passive --band 0:2e10 --order 8 --export "$DAEMON_NL"
[ -s "$DAEMON_NL" ] || { echo "daemon export body missing or empty" >&2; exit 1; }
dune exec bin/pmtbr_cli.exe -- info --spice "$DAEMON_NL"
rm -f "$DAEMON_NL"
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --server-stats
dune exec bin/pmtbr_cli.exe -- batch --socket "$SOCK" --shutdown
wait "$SERVE_PID"
SERVE_PID=""
if [ -S "$SOCK" ]; then echo "daemon left its socket behind" >&2; exit 1; fi

echo "CI OK"
