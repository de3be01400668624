#!/usr/bin/env bash
# Symbol census of the wp_core library: every out-of-line function under
# wp:: must be kept by some linked binary, and a function that only the
# test binaries keep must be named on tools/census_allowlist.txt with its
# reason.
#
#   flags=(-DCMAKE_BUILD_TYPE=Debug
#          "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
#          "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
#   cmake -B build -S . "${flags[@]}" && cmake --build build -j
#   cmake -B build-wpbench -S wpbench "${flags[@]}" &&
#       cmake --build build-wpbench -j
#   tools/census.sh build build-wpbench
#
# With one section per function and --gc-sections, a binary keeps a
# function's code only if something reachable from its entry point refers
# to it. The census takes the global text symbols (nm type T) under wp::
# of build/libwp_core.a and looks each one up among the text symbols (T or
# t) of every binary built from tests/, bench/, examples/ and tools/, and
# of wpbench's wpbench and wirepipe_evald:
#   * kept by no binary: uncalled, the census fails;
#   * kept only by tests/ binaries: test-only, it fails unless the
#     allowlist names the symbol.
# It also fails on an allowlist entry that is no longer test-only, so the
# list names exactly the kept test-only symbols.
#
# Allowlist lines are "<reason> <symbol as nm -C prints it>", the reason
# one of:
#   reference   a slow or exhaustive oracle the tests check a production
#               path against;
#   inspection  an accessor that reads back state for tests;
#   generator   builds test inputs;
#   server-path the client side of a path a shipped server serves;
#   value-type  a copy or assignment a wire message type must have, which
#               shipped binaries (they build each message once and move
#               it) never call and the lifetime suites check.
#
# Blind spots:
#   * virtual functions: a kept vtable keeps every override, so a virtual
#     that nothing calls still counts as live;
#   * header-only and template code: it is emitted as weak symbols in the
#     binaries that use it, never as T in the library, so it is not
#     counted at all.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build dir> <wpbench build dir>" >&2
  exit 2
fi
build=$1
bench_build=$2
root=$(cd "$(dirname "$0")/.." && pwd)
allowlist=$root/tools/census_allowlist.txt
export LC_ALL=C

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Text symbols under wp:: of one file (nm types from $2), one per line,
# sorted and unique; the std::string template spelled std::string and ABI
# tags dropped, so allowlist lines stay readable.
text_symbols() {
  nm -C --defined-only "$1" |
    awk -v types="$2" 'index(types, $2) && $3 ~ /^wp::/ {
      sub(/^[^ ]+ [^ ]+ /, ""); print }' |
    sed -e 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g' \
        -e 's/\[abi:cxx11\]//g' |
    sort -u
}

# One binary per source file of a directory, as CMakeLists.txt builds them.
names_in() {
  local source
  for source in "$root/$1"/*.cpp; do basename "$source" .cpp; done
}

test_bins=()
for name in $(names_in tests); do test_bins+=("$build/$name"); done
shipped_bins=("$bench_build/wpbench" "$bench_build/wirepipe_evald")
for name in $(names_in bench) $(names_in examples) $(names_in tools); do
  shipped_bins+=("$build/$name")
done
for binary in "${test_bins[@]}" "${shipped_bins[@]}"; do
  if [[ ! -x $binary ]]; then
    echo "census: missing binary $binary" >&2
    exit 2
  fi
done

text_symbols "$build/libwp_core.a" T > "$work/defined"
for binary in "${test_bins[@]}"; do
  text_symbols "$binary" Tt
done > "$work/tests.raw"
for binary in "${shipped_bins[@]}"; do
  text_symbols "$binary" Tt
done > "$work/shipped.raw"
sort -u "$work/tests.raw" > "$work/tests"
sort -u "$work/shipped.raw" > "$work/shipped"
sort -u "$work/tests" "$work/shipped" > "$work/kept"

comm -23 "$work/defined" "$work/kept" > "$work/uncalled"
comm -23 "$work/defined" "$work/shipped" | comm -12 - "$work/tests" \
  > "$work/test_only"

grep -v -e '^[[:space:]]*#' -e '^[[:space:]]*$' "$allowlist" \
  > "$work/entries" || true
awk '$1 !~ /^(reference|inspection|generator|server-path|value-type)$/' \
  "$work/entries" > "$work/bad_reasons"
sed -E 's/^[^ ]+ +//' "$work/entries" | sort > "$work/allowed.all"
uniq -d "$work/allowed.all" > "$work/duplicates"
sort -u "$work/allowed.all" > "$work/allowed"
comm -23 "$work/test_only" "$work/allowed" > "$work/unlisted"
comm -13 "$work/test_only" "$work/allowed" > "$work/stale"

status=0
report() {
  if [[ -s $2 ]]; then
    echo "census: $1:"
    sed 's/^/  /' "$2"
    status=1
  fi
}
report "allowlist lines with an unknown reason" "$work/bad_reasons"
report "symbols named more than once on the allowlist" "$work/duplicates"
report "functions no binary keeps (delete them)" "$work/uncalled"
report "functions only tests keep, not on the allowlist" "$work/unlisted"
report "allowlist entries that are not test-only functions" "$work/stale"

echo "census: $(wc -l < "$work/defined") functions," \
     "$(wc -l < "$work/uncalled") uncalled," \
     "$(wc -l < "$work/test_only") test-only" \
     "($(wc -l < "$work/allowed") allowlisted)"
exit "$status"
