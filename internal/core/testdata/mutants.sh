#!/usr/bin/env bash
# Applies each row of mutants.txt with `go test -overlay`, so no file of
# the tree changes, and fails if a mutant survives its packages' tests.
# A row whose old line is not found exactly once, or whose mutant does not
# compile, fails too: the ledger must not rot into mutants that die for
# the wrong reason. Run from the repository root:
#
#   bash internal/core/testdata/mutants.sh
set -euo pipefail
root=$(pwd)
ledger=internal/core/testdata/mutants.txt
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
rows=0 survived=0 broken=0
while IFS=$'\t' read -r file old new pkgs; do
	[[ -z $file || $file == \#* ]] && continue
	rows=$((rows + 1))
	what="$file: '$old' -> '$new'"
	n=$(awk -v old="$old" '{ t = $0; sub(/^[ \t]+/, "", t); if (t == old) n++ } END { print n + 0 }' "$file")
	if [[ $n != 1 ]]; then
		echo "BROKEN  $what: the line occurs $n times" >&2
		broken=$((broken + 1))
		continue
	fi
	mutant="$work/$rows.go"
	awk -v old="$old" -v new="$new" '{
		t = $0; sub(/^[ \t]+/, "", t)
		if (t == old) { match($0, /^[ \t]*/); print substr($0, 1, RLENGTH) new } else print
	}' "$file" >"$mutant"
	printf '{"Replace":{"%s":"%s"}}\n' "$root/$file" "$mutant" >"$work/overlay.json"
	# shellcheck disable=SC2086 # pkgs is a list
	if ! go vet -overlay "$work/overlay.json" $pkgs >/dev/null 2>&1; then
		echo "BROKEN  $what: the mutant does not compile" >&2
		broken=$((broken + 1))
		continue
	fi
	start=$SECONDS
	# shellcheck disable=SC2086
	if go test -overlay "$work/overlay.json" $pkgs >"$work/out" 2>&1; then
		echo "SURVIVED $what ($pkgs)" >&2
		survived=$((survived + 1))
	else
		echo "killed  $what ($pkgs, $((SECONDS - start)) s): $(grep -m1 -o -- '--- FAIL: [^ ]*' "$work/out" || echo 'no test named')"
	fi
done <"$ledger"
echo "$rows mutants: $((rows - survived - broken)) killed, $survived survived, $broken broken"
[[ $rows -gt 0 && $survived == 0 && $broken == 0 ]]
