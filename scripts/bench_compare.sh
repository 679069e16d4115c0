#!/usr/bin/env bash
# Diff the working tree's bench/results/<name>-latest.json artifacts
# against the committed baselines (git show HEAD:...): one line per
# numeric metric that moved, with the relative change. Informational —
# always exits 0; the pass/fail floors live in the bench gates themselves
# (PERF_FLOOR, WARM_FLOOR). Locally: `make bench-compare`
# after any bench target; CI runs it so a perf regression is visible in
# the log next to the gate verdict.
set -euo pipefail

cd "$(dirname "$0")/.."

base=$(mktemp)
trap 'rm -f "$base"' EXIT

found=0
for path in bench/results/*-latest.json; do
  [ -f "$path" ] || continue
  if ! git show "HEAD:$path" > "$base" 2>/dev/null; then
    echo "== $path: no committed baseline (new artifact)"
    continue
  fi
  found=1
  echo "== $path vs HEAD"
  python3 - "$base" "$path" <<'EOF'
import json, sys

def leaves(node, prefix=""):
    # Scalar numeric leaves by dotted path; arrays index by position, but
    # wall-clock metrics are skipped — they move on every run and would
    # drown the signal.
    if isinstance(node, dict):
        for k, v in node.items():
            if "wall" in k or k.endswith("_s") or k.endswith("_ms") \
               or "per_s" in k or "latency" in k or k == "baseline":
                continue
            yield from leaves(v, f"{prefix}{k}.")
    elif isinstance(node, list):
        for i, v in enumerate(node):
            name = None
            if isinstance(v, dict):
                name = v.get("name") or v.get("variant")
            key = name if name is not None else str(i)
            yield from leaves(v, f"{prefix}{key}.")
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield prefix.rstrip("."), float(node)
    elif isinstance(node, bool):
        yield prefix.rstrip("."), node

old = dict(leaves(json.load(open(sys.argv[1]))))
new = dict(leaves(json.load(open(sys.argv[2]))))
moved = 0
for key in sorted(set(old) | set(new)):
    a, b = old.get(key), new.get(key)
    if a == b:
        continue
    moved += 1
    if a is None or b is None:
        print(f"   {key}: {'added' if a is None else 'removed'} ({a if b is None else b})")
    elif isinstance(a, bool) or isinstance(b, bool):
        print(f"   {key}: {a} -> {b}")
    elif a != 0:
        print(f"   {key}: {a:g} -> {b:g} ({100.0 * (b - a) / abs(a):+.1f}%)")
    else:
        print(f"   {key}: {a:g} -> {b:g}")
if moved == 0:
    print("   no metric moved")
EOF
done

if [ "$found" = 0 ]; then
  echo "bench-compare: no artifacts with committed baselines under bench/results/"
fi
