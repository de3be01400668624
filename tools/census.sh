#!/usr/bin/env bash
# Symbol census of the wp_core library: every function under wp:: that the
# library defines, out of line or in a header, must be kept by some linked
# binary, and a function that only the test binaries keep must be named on
# tools/census_allowlist.txt with its reason.
#
#   flags=(-DCMAKE_BUILD_TYPE=Debug
#          "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections -fkeep-inline-functions"
#          "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")
#   cmake -B build -S . "${flags[@]}" && cmake --build build -j
#   cmake -B build-wpbench -S wpbench "${flags[@]}" &&
#       cmake --build build-wpbench -j
#   tools/census.sh build build-wpbench
#
# With one section per function and --gc-sections, a binary keeps a
# function's code only if something reachable from its entry point refers
# to it. -fkeep-inline-functions makes every object file emit every inline
# function it sees, so the library also defines the header code of each
# header a src/ file includes, as weak symbols. The census takes the
# function symbols under wp:: of build/libwp_core.a (nm types T, W and w)
# and looks each one up among the function symbols (T, t, W or w) of every
# binary built from tests/, bench/, examples/ and tools/, and of wpbench's
# wpbench and wirepipe_evald:
#   * kept by no binary: uncalled, the census fails;
#   * kept only by tests/ binaries: test-only, it fails unless the
#     allowlist names the symbol.
# It also fails on an allowlist entry that is no longer test-only, so the
# list names exactly the kept test-only symbols.
#
# A symbol is a wp:: function when its own qualified name is: the mangled
# name opens a nested name in namespace wp (_ZN...2wp, or _ZZN...2wp for a
# lambda or local class inside a wp:: function). A std:: template
# instantiated on a wp:: type, such as std::forward<wp::eval::EvalReply
# const&>, is std::'s even though its demangled name starts with a wp::
# return type.
#
# Not counted:
#   * compiler-generated special members: an implicit constructor,
#     destructor or assignment (DW_AT_artificial in the library's DWARF)
#     has no source to delete;
#   * the functions named in always_inlined below: every caller inlines
#     them even at -O0, so no binary keeps a symbol for them. Each one's
#     callers are counted instead.
#
# Allowlist lines are "<reason> <symbol as c++filt -i prints it>", the
# reason one of:
#   inspection  an accessor that reads back state for tests;
#   server-path the client side of a path a shipped server serves;
#   value-type  a copy, assignment or comparison a wire message type must
#               have, which shipped binaries (they build each message once
#               and move it) never call and the lifetime suites check;
#   seam        a setter through which a test substitutes a component the
#               shipped binaries always build for themselves.
# Test input builders and slow reference oracles live in tests/testkit/
# (the wp_testkit library), not in wp_core.
#
# Blind spots:
#   * virtual functions: a kept vtable keeps every override, so a virtual
#     that nothing calls still counts as live;
#   * templates nothing instantiates: no object file emits them.
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

always_inlined=(
  'wp::Network::advance()'  # [[gnu::always_inline]] in step() and run()
)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Demangles mangled names, one per line, into the spelling allowlist lines
# use (std::string spelled so, ABI tags dropped), sorted and unique.
readable() {
  c++filt -i |
    sed -e 's/std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >/std::string/g' \
        -e 's/\[abi:cxx11\]//g' |
    sort -u
}

# wp:: function symbols of one file (nm types from $2), readable.
functions() {
  nm --defined-only "$1" |
    awk -v types="$2" 'index(types, $2) && $3 ~ /^_ZZ?N[rVKRO]*2wp/ {
      print $3 }' |
    readable
}

# Compiler-generated subprograms of one file: the linkage names of the
# DWARF subprogram entries that carry DW_AT_artificial, readable.
artificial() {
  readelf --wide --debug-dump=info "$1" 2>/dev/null |
    awk '/^ *<[0-9]+><[0-9a-f]+>: Abbrev Number/ {
           if (subprogram && flagged && name != "") print name
           subprogram = /DW_TAG_subprogram/; flagged = 0; name = ""; next }
         subprogram && /DW_AT_linkage_name/ { name = $NF }
         subprogram && /DW_AT_artificial/ { flagged = 1 }
         END { if (subprogram && flagged && name != "") print name }' |
    readable
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

library=$build/libwp_core.a
functions "$library" TWw > "$work/functions"
{
  artificial "$library"
  printf '%s\n' "${always_inlined[@]}"
} | sort -u > "$work/skipped"
comm -23 "$work/functions" "$work/skipped" > "$work/defined"
for binary in "${test_bins[@]}"; do
  functions "$binary" TtWw
done | sort -u > "$work/tests"
for binary in "${shipped_bins[@]}"; do
  functions "$binary" TtWw
done | sort -u > "$work/shipped"
sort -u "$work/tests" "$work/shipped" > "$work/kept"

comm -23 "$work/defined" "$work/kept" > "$work/uncalled"
comm -23 "$work/defined" "$work/shipped" | comm -12 - "$work/tests" \
  > "$work/test_only"

grep -v -e '^[[:space:]]*#' -e '^[[:space:]]*$' "$allowlist" \
  > "$work/entries" || true
awk '$1 !~ /^(inspection|server-path|value-type|seam)$/' \
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
