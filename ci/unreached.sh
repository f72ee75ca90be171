#!/usr/bin/env bash
# Reachability gate: every function that src/ defines must be kept by a
# binary that runs it (the perfbench runner, which drives every benchmark
# workload, a bench or an example), or be listed in ci/unreached.txt with
# the reason it stays.
#
# The pass builds the src/ libraries, the bench and example targets and
# perfbench/'s runner at -O0 with one section per function, links them with
# --gc-sections, and lists the bytecard:: text symbols (nm types T/W) that
# the src/ libraries define and no binary keeps. -O0 matters: at -O2 a
# function inlined into every caller has no out-of-line copy left and would
# wrongly read as unreached. Lambdas and bytecard::Result<...> members are
# dropped: they belong to the function that spells them.
#
# Each line of ci/unreached.txt is a demangled signature followed by
# "# <reason>", the reason a number from 1 to 5 (see the file's header).
# The gate fails on any difference in either direction: an unreached
# function that is not listed, or a listed one that is now reached or gone.
#
# Usage: ci/unreached.sh [build-dir]     (default: build-unreached/)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_ROOT="${1:-${REPO_ROOT}/build-unreached}"
ALLOWLIST="${REPO_ROOT}/ci/unreached.txt"
JOBS="$(nproc)"

# The build type keeps -DNDEBUG, so assert-only calls count as they do in
# the shipped build, and adds no -O level after the -O0 here.
configure() {  # <source-dir> <build-dir>
  cmake -G "Unix Makefiles" -S "$1" -B "$2" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-DNDEBUG" \
    -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections -fdata-sections" \
    -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" > /dev/null
}

configure "${REPO_ROOT}" "${BUILD_ROOT}/main"
make -s -C "${BUILD_ROOT}/main/bench" -j "${JOBS}" > /dev/null
make -s -C "${BUILD_ROOT}/main/examples" -j "${JOBS}" > /dev/null
configure "${REPO_ROOT}/perfbench" "${BUILD_ROOT}/perfbench"
make -s -C "${BUILD_ROOT}/perfbench" -j "${JOBS}" perfbench_runner > /dev/null

mapfile -t binaries < <(
  find "${BUILD_ROOT}/main/bench" "${BUILD_ROOT}/main/examples" \
    "${BUILD_ROOT}/perfbench/perfbench_runner" -maxdepth 1 -type f \
    -executable | sort)
mapfile -t libraries < <(find "${BUILD_ROOT}/main/src" -name 'lib*.a' | sort)
echo "unreached: ${#binaries[@]} binaries, ${#libraries[@]} src libraries"

# Demangled signatures of the functions in namespace bytecard defined in the
# given files, one per line, sorted and unique. The namespace is matched on
# the mangled name, so std:: templates over bytecard:: types stay out.
functions() {
  nm --defined-only "$@" 2> /dev/null |
    awk '($2 == "T" || $2 == "W") && $3 ~ /^_ZN[KVRO]*8bytecard/ &&
         $3 !~ /^_ZN[KVRO]*8bytecard6ResultI/ { print $3 }' |
    c++filt | grep -v -F '{lambda(' | LC_ALL=C sort -u
}

actual="$(mktemp)"
listed="$(mktemp)"
trap 'rm -f "${actual}" "${listed}"' EXIT
LC_ALL=C comm -23 <(functions "${libraries[@]}") \
  <(functions "${binaries[@]}") > "${actual}"

status=0
entries() { awk '!/^#/ && NF' "${ALLOWLIST}"; }
if entries | awk '!/ # [1-5]( |$)/ { print; bad = 1 } END { exit !bad }'; then
  echo "unreached: the lines above carry no reason 1-5" >&2
  status=1
fi
entries | sed -E 's/ +# [1-5]( .*)?$//' | LC_ALL=C sort > "${listed}"
if ! diff -u --label ci/unreached.txt --label unreached "${listed}" \
     "${actual}"; then
  echo "unreached: src/ functions that no workload, bench or example" \
       "reaches differ from ci/unreached.txt (+ unlisted, - listed but" \
       "reached or gone)" >&2
  status=1
fi
echo "unreached: $(wc -l < "${actual}") functions," \
     "$([ "${status}" -eq 0 ] && echo OK || echo FAILED)"
exit "${status}"
