#!/usr/bin/env bash
# Guards over a finished build (scripts/check.sh and CI run them):
#
#   warnings      the build log holds no compiler "warning:" line, so
#                 a new warning fails the build instead of scrolling
#                 past in the log.
#   alu_dispatch  the decoded executors' objects (decoded IR
#                 interpreter, decoded sim general path, trace replay)
#                 make no out-of-line call to evalBinaryAlu
#                 (ir/alu_ops.hh) and emit no copy of it. Each binary
#                 ALU opcode has its own handler that inlines that
#                 opcode's body; a call would put a second switch on
#                 the opcode behind every executed ALU op.
#
# Usage: scripts/build_guards.sh <build-dir> <build-log>
#
# The log must come from a build that compiled every object (a fresh
# or --clean-first build): an up-to-date object prints no warnings.

set -euo pipefail

BUILD=$1
LOG=$2
status=0

if grep -n 'warning:' "$LOG"; then
    echo "build_guards: compiler warnings in $LOG" >&2
    status=1
fi

for obj in ir/decoded_interpreter.cc.o sim/vliw_sim_decoded.cc.o \
           sim/trace_cache.cc.o; do
    path="$BUILD/src/CMakeFiles/lbp.dir/$obj"
    if [ ! -f "$path" ]; then
        echo "build_guards: missing object $path" >&2
        status=1
        continue
    fi
    refs=$(objdump -dr "$path" | grep -c 'evalBinaryAlu' || true)
    if [ "$refs" -ne 0 ]; then
        echo "build_guards: $obj references evalBinaryAlu $refs" \
             "time(s); want 0 (one dispatch per ALU op)" >&2
        status=1
    fi
done

[ $status -eq 0 ] && echo "build_guards: no warnings, no out-of-line" \
    "evalBinaryAlu in the decoded executors"
exit $status
