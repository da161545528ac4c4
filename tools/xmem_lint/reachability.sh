#!/bin/sh
# Every src/ header must be reached from a bench or a tool, so no module
# is compiled, sanitized, linted and documented with no claim behind it.
# Follows `#include "..."` (resolved under src/) from every C++ file under
# bench/ and tools/, adding the .cpp beside each reached header, and fails
# naming each src/**/*.hpp it never reaches.
#
# Usage: reachability.sh <repo-root>
set -eu
cd "$1"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

find bench tools -type f \( -name '*.cpp' -o -name '*.hpp' \) | sort >"$tmp/seen"
cp "$tmp/seen" "$tmp/todo"
while [ -s "$tmp/todo" ]; do
  xargs sed -n 's|^[[:space:]]*#[[:space:]]*include[[:space:]]*"\([^"]*\)".*|src/\1|p' \
    <"$tmp/todo" | sort -u | while read -r header; do
    [ -f "$header" ] || continue
    echo "$header"
    [ ! -f "${header%.hpp}.cpp" ] || echo "${header%.hpp}.cpp"
  done | sort -u >"$tmp/reached"
  comm -13 "$tmp/seen" "$tmp/reached" >"$tmp/todo"
  sort -u "$tmp/seen" "$tmp/todo" -o "$tmp/seen"
done

find src -name '*.hpp' | sort | comm -23 - "$tmp/seen" >"$tmp/unreached"
if [ -s "$tmp/unreached" ]; then
  echo "reachability: no bench or tool reaches these headers:" >&2
  cat "$tmp/unreached" >&2
  exit 1
fi
echo "reachability: OK ($(find src -name '*.hpp' | wc -l) headers reached)"
