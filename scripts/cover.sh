#!/bin/sh
# Statement-coverage gate for the hierarchy/simulator core and the secure
# cache designs (make cover, and CI's coverage job). The packages under the
# gate are the ones whose miss-path and fill-policy semantics every
# experiment number depends on: a refactor that silently un-tests them
# invalidates the goldens' meaning even while the goldens still pass. Every
# line store sits under the same gate for the same reason — internal/cache
# (the slot store and SetAssoc), newcache, rpcache, nomo, plcache,
# scattercache and mirage — with the conformance suite that pins every
# design's contract and internal/securecache, the one place every design
# and every simulated L1 is built. The two simulator CLIs, rfsim and
# rfattack, are under it too: their tests pin every output byte and every
# rejected flag value through run, and the gate keeps new flag handling
# from going untested.
set -eu

THRESHOLD=80
PKGS="randfill/internal/cache randfill/internal/hierarchy randfill/internal/sim randfill/internal/core randfill/internal/trace randfill/internal/newcache randfill/internal/rpcache randfill/internal/nomo randfill/internal/plcache randfill/internal/scattercache randfill/internal/mirage randfill/internal/securecache randfill/internal/securecache/conformance randfill/cmd/rfsim randfill/cmd/rfattack"

fail=0
for pkg in $PKGS; do
    line=$(go test -cover "$pkg" | tail -n 1)
    pct=$(printf '%s\n' "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "cover: no coverage figure for $pkg: $line" >&2
        fail=1
        continue
    fi
    ok=$(awk -v p="$pct" -v t="$THRESHOLD" 'BEGIN { print (p >= t) ? 1 : 0 }')
    if [ "$ok" = 1 ]; then
        echo "ok   $pkg ${pct}% (>= ${THRESHOLD}%)"
    else
        echo "FAIL $pkg ${pct}% (< ${THRESHOLD}%)" >&2
        fail=1
    fi
done

# The lint stack (framework + taint engine + checkers) is gated as a
# group with -coverpkg: the checkers package has no test files of its own
# — it is exercised through the corpus harness in internal/analysis — so
# per-package figures would read 0% while the group is in fact covered.
# An unsound checker silently waves broken code through CI, which is why
# it sits under the same gate as the simulator core.
ANALYSIS="randfill/internal/analysis/..."
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
if ! go test -coverpkg="$ANALYSIS" -coverprofile="$profile" "$ANALYSIS" >/dev/null; then
    echo "cover: go test $ANALYSIS failed" >&2
    fail=1
else
    pct=$(go tool cover -func="$profile" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
    ok=$(awk -v p="$pct" -v t="$THRESHOLD" 'BEGIN { print (p >= t) ? 1 : 0 }')
    if [ "$ok" = 1 ]; then
        echo "ok   $ANALYSIS ${pct}% (>= ${THRESHOLD}%)"
    else
        echo "FAIL $ANALYSIS ${pct}% (< ${THRESHOLD}%)" >&2
        fail=1
    fi
fi
exit $fail
