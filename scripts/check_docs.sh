#!/bin/sh
# check_docs.sh — fail if README.md, ARCHITECTURE.md or EXPERIMENTS.md
# reference Go identifiers (in backticked code spans or code fences) that
# no longer exist anywhere in the Go sources. Keeps the docs from silently
# rotting as the code is refactored.
#
# Heuristic: every backtick-delimited token that looks like a Go identifier
# (optionally qualified: `pkg.Ident`, `Ident.Method`) must appear as a word
# somewhere in a .go file — an exported one (`Ident`) or an unexported
# camelCase one (`lowerCamel`, which holds an uppercase letter). Flags,
# paths, shell commands, single lowercase words, etc. do not match the
# pattern and are skipped.
set -u
fail=0
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
            if ! grep -rqw --include='*.go' "$part" .; then
                echo "$doc references \`$id\` but no Go source mentions $part"
                fail=1
            fi
        done
    done
done
if [ "$fail" -ne 0 ]; then
    echo "doc check FAILED: fix or remove the stale references above"
    exit 1
fi
echo "doc check passed"
