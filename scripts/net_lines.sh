#!/usr/bin/env bash
# Lines added, removed and net over the program sources (crates/, src/,
# tests/, examples/) between BASE and the working tree, untracked files
# included.
#
#   scripts/net_lines.sh            # against HEAD
#   scripts/net_lines.sh <BASE>     # against any commit
set -euo pipefail
cd "$(dirname "$0")/.."

BASE="${1:-HEAD}"
SCOPE=(crates/ src/ tests/ examples/)

read -r added removed < <(
  {
    git diff --numstat "$BASE" -- "${SCOPE[@]}"
    git ls-files --others --exclude-standard -- "${SCOPE[@]}" |
      while IFS= read -r f; do
        printf '%s\t0\t%s\n' "$(wc -l <"$f")" "$f"
      done
  } | awk '$1 != "-" { a += $1; r += $2 } END { print a + 0, r + 0 }'
)
echo "scope: ${SCOPE[*]} (vs $BASE)"
echo "added:   $added"
echo "removed: $removed"
echo "net:     $((added - removed))"
