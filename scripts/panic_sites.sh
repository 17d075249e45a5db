#!/usr/bin/env bash
# Panic sites per crate: in the non-test source of amada-core, amada-index
# and amada-cloud (`non_test_lines.sh --source`, comment lines dropped),
# the calls of `expect(`, `unwrap()` and `panic!`, a poisoned-lock unwrap
# (`.lock()`, `.read()` or `.write()` followed by `.unwrap()`) excepted.
# Each crate's count is held at or below its ceiling below, so a site can
# go but not come back: lower a ceiling when a change removes sites.
#
#   scripts/panic_sites.sh           one "<crate> <sites> <ceiling>" row per crate
#   scripts/panic_sites.sh --list    the counted lines themselves
#   scripts/panic_sites.sh --check   the rows; fails if a crate is above its ceiling
set -euo pipefail
cd "$(dirname "$0")/.."

declare -A ceiling=([core]=11 [index]=6 [cloud]=18)

# The counted lines of crate $1, poisoned-lock unwraps cut out.
sites_of() {
    scripts/non_test_lines.sh --source |
        grep -E "^crates/$1/src/" |
        grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' |
        sed -E 's/\.(lock|read|write)\(\)\.unwrap\(\)//g' |
        grep -E '\bexpect\(|\bunwrap\(\)|\bpanic!' || true
}

count_of() {
    sites_of "$1" | grep -oE '\bexpect\(|\bunwrap\(\)|\bpanic!' | wc -l
}

case "${1:-}" in
    "" | --check)
        over=0
        for crate in core index cloud; do
            n=$(count_of "$crate")
            echo "$crate $n ${ceiling[$crate]}"
            if [ "$n" -gt "${ceiling[$crate]}" ]; then
                echo "panic sites in $crate: $n, above its ceiling ${ceiling[$crate]}" >&2
                over=1
            fi
        done
        if [ "${1:-}" = --check ]; then
            exit "$over"
        fi
        ;;
    --list)
        for crate in core index cloud; do
            sites_of "$crate"
        done
        ;;
    *)
        echo "usage: $0 [--check|--list]" >&2
        exit 2
        ;;
esac
