#!/usr/bin/env bash
# Non-test source per crate: of every crates/<crate>/src/**/*.rs, the lines
# before its `#[cfg(test)]` + `mod tests` pair (the whole file when it has
# none). This is the count ROADMAP item 2 defines and BENCH_trajectory.jsonl
# records as "non_test_lines".
#
#   scripts/non_test_lines.sh             one "<crate> <lines>" row per crate
#   scripts/non_test_lines.sh --json      {"<crate>":<lines>,...} on one line
#   scripts/non_test_lines.sh --markdown  a table for a CI step summary
#   scripts/non_test_lines.sh --source    the counted lines themselves, as
#                                         "<file>:<line>:<text>" (for grep)
set -euo pipefail
cd "$(dirname "$0")/.."

# The counted lines of crate directory $1.
source_of() {
    find "$1/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { if (held != "") print held; in_tests = 0; held = "" }
        in_tests { next }
        held != "" && /^[[:space:]]*mod tests/ { in_tests = 1; held = ""; next }
        held != "" { print held; held = "" }
        /^[[:space:]]*#\[cfg\(test\)\]/ { held = FILENAME ":" FNR ":" $0; next }
        { print FILENAME ":" FNR ":" $0 }
        END { if (held != "") print held }'
}

rows() {
    for crate in crates/*/; do
        echo "$(basename "$crate") $(source_of "${crate%/}" | wc -l)"
    done
}

case "${1:-}" in
    "")
        rows
        ;;
    --json)
        rows | awk 'BEGIN { printf "{" } { printf "%s\"%s\":%s", (NR > 1 ? "," : ""), $1, $2 } END { print "}" }'
        ;;
    --markdown)
        echo '| crate | non-test `src/**/*.rs` lines |'
        echo '|---|---|'
        rows | awk '{ printf "| %s | %s |\n", $1, $2 }'
        ;;
    --source)
        for crate in crates/*/; do
            source_of "${crate%/}"
        done
        ;;
    *)
        echo "usage: $0 [--json|--markdown|--source]" >&2
        exit 2
        ;;
esac
