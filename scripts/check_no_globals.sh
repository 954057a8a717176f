#!/usr/bin/env bash
# No mutable process-global state in library or binary sources: every
# `static mut`, and every `static` whose type is an atomic, a `Mutex` or
# an `RwLock`, under crates/*/src fails the check. Such state leaks
# between runs (and between parallel tests) that share a process; pass
# the setting through the owning object instead (a config field, a
# registry entry, a closure capture).
#
# A textual audit, not a parser: it reads the type between the static's
# name and its `=`, and skips comment lines. Run as the `globals` stage
# of scripts/ci.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0

while IFS=: read -r file line text; do
    trimmed="${text#"${text%%[![:space:]]*}"}"
    case "$trimmed" in
        //*|\**) continue ;;
    esac
    if [[ "$trimmed" =~ (^|[^[:alnum:]_])static[[:space:]]+mut[[:space:]] ]]; then
        reason="static mut"
    else
        # The declared type: text after `static NAME:` up to `=` (or the
        # end of the line for a multi-line initializer).
        ty="${trimmed#*static}"
        ty="${ty#*:}"
        ty="${ty%%=*}"
        if [[ "$ty" =~ (Atomic[A-Za-z0-9]*|Mutex|RwLock) ]]; then
            reason="static of type ${BASH_REMATCH[1]}"
        else
            continue
        fi
    fi
    echo "error: $reason at $file:$line" >&2
    echo "    $trimmed" >&2
    fail=1
done < <(grep -rn --include='*.rs' -E '(^|[^[:alnum:]_"])static[[:space:]]+(mut[[:space:]]+)?[A-Za-z_][A-Za-z0-9_]*[[:space:]]*:' crates/*/src)

if [ "$fail" -ne 0 ]; then
    echo "globals audit failed: carry the state in the object that owns it" >&2
    exit 1
fi
echo "globals audit: no mutable statics under crates/*/src"
