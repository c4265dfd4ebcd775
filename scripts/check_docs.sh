#!/bin/sh
# check_docs.sh — fail if README.md, ARCHITECTURE.md or EXPERIMENTS.md
# reference Go identifiers (in backticked code spans or code fences) that
# no longer exist anywhere in the Go sources. Keeps the docs from silently
# rotting as the code is refactored.
#
# Heuristic: every backtick-delimited token that looks like a Go identifier
# (optionally qualified: `pkg.Ident`, `Ident.Method`) must appear as a word
# in the code of some .go file, test files included — an exported one
# (`Ident`) or an unexported camelCase one (`lowerCamel`, which holds an
# uppercase letter). A mention in a // comment does not count: a comment can
# outlive the code it names. Flags, paths, shell commands, single lowercase
# words, etc. do not match the pattern and are skipped.
#
# It also fails on a cited Markdown file that does not exist: every path
# ending in .md in the Go sources (comments included), scripts/,
# .github/workflows/ and the three docs must name a file, from the repo
# root or from the citing file's directory. CHANGES.md and ROADMAP.md are
# history and plan, and are not scanned.
#
# And it fails when one of the three docs is larger than its byte budget
# below, so doc growth is a decision rather than drift: raising a budget is
# an explicit diff to this file, with the reason given in CHANGES.md.
set -u
budgets="ARCHITECTURE.md:77354 EXPERIMENTS.md:115819 README.md:21739"
fail=0
code=$(mktemp)
cited=$(mktemp)
trap 'rm -f "$code" "$cited"' EXIT
find . -name '*.go' -exec sed 's#//.*##' {} + > "$code"
for doc in README.md ARCHITECTURE.md EXPERIMENTS.md; do
    [ -f "$doc" ] || { echo "missing $doc"; fail=1; continue; }
    idents=$(grep -o '`[A-Za-z][A-Za-z0-9_.]*`' "$doc" | tr -d '`' | sort -u)
    for id in $idents; do
        # Check each dot-separated component that starts with an uppercase
        # letter (exported) or is lowerCamel (unexported); skip the rest.
        for part in $(printf '%s' "$id" | tr '.' ' '); do
            case $part in
                [A-Z]*) ;;
                [a-z]*[A-Z]*) ;;
                *) continue ;;
            esac
            if ! grep -qw "$part" "$code"; then
                echo "$doc references \`$id\` but no Go code mentions $part"
                fail=1
            fi
        done
    done
done
{ find . -name '*.go' -not -path './.git/*'; find scripts .github/workflows -type f
  printf '%s\n' README.md ARCHITECTURE.md EXPERIMENTS.md; } |
    while read -r src; do
        grep -o '[A-Za-z0-9_][A-Za-z0-9_./-]*[.]md\b' "$src" | sort -u |
            while read -r md; do
                [ -f "$md" ] || [ -f "$(dirname "$src")/$md" ] ||
                    echo "$src cites $md, which does not exist"
            done
    done > "$cited"
if [ -s "$cited" ]; then
    cat "$cited"
    fail=1
fi
for b in $budgets; do
    doc=${b%%:*} max=${b##*:}
    size=$(wc -c < "$doc")
    if [ "$size" -gt "$max" ]; then
        echo "$doc is $size bytes, over its budget of $max"
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "doc check FAILED: fix the stale references or the oversized docs above"
    exit 1
fi
echo "doc check passed"
