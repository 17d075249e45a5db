#!/usr/bin/env bash
# The docs name only what exists: every `crates/…` path that README.md,
# DESIGN.md or EXPERIMENTS.md names is a file or directory of this tree,
# and every `repro <name>` they name is an artifact of the registry
# (`crates/bench/src/registry.rs`), `all` or `check`.
#
#   scripts/doc_paths.sh    prints each broken reference as
#                           "<doc>:<line>: <what>" and fails if there is one
set -euo pipefail
cd "$(dirname "$0")/.."

docs=(README.md DESIGN.md EXPERIMENTS.md)
names=" all check $(grep -oE '^ +name: "[a-z0-9]+"' crates/bench/src/registry.rs |
    cut -d'"' -f2 | tr '\n' ' ')"
broken=0

# A path ends where the name does: a sentence's full stop is not part of it.
while IFS=: read -r doc line path; do
    path=${path%"${path##*[!.]}"}
    if [ ! -e "$path" ]; then
        echo "$doc:$line: no such path: $path"
        broken=1
    fi
done < <(grep -noE 'crates/[A-Za-z0-9_./-]*' "${docs[@]}")

while IFS=: read -r doc line command; do
    name=${command#repro }
    if [[ "$names" != *" $name "* ]]; then
        echo "$doc:$line: no such repro artifact: $name"
        broken=1
    fi
done < <(grep -noE '\brepro [a-z][a-z0-9_-]*' "${docs[@]}")

exit "$broken"
