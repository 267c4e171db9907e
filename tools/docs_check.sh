#!/bin/sh
# Keeps the docs honest against the tree:
#  1. Every JITVS_* environment variable read anywhere in src/, bench/
#     or tools/ must appear in the README "Configuration" table.
#  2. ARCHITECTURE.md must mention every subdirectory of src/, so the
#     module map cannot silently omit a new subsystem.
#  3. Every backticked `Class::member` in README.md, DESIGN.md and
#     ARCHITECTURE.md must name a member that still appears in src/,
#     tools/ or bench/, so a renamed or deleted API cannot linger there.
# Wired into ctest as `docs_check` (see the top-level CMakeLists.txt).
#
# Usage: docs_check.sh [repo-root]  (default: the script's parent dir)

set -eu

ROOT=${1:-$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)}
README="$ROOT/README.md"
ARCH="$ROOT/ARCHITECTURE.md"
DESIGN="$ROOT/DESIGN.md"

[ -f "$README" ] || { echo "docs_check: no README at $README" >&2; exit 1; }
[ -f "$ARCH" ] || { echo "docs_check: no ARCHITECTURE.md at $ARCH" >&2; exit 1; }
[ -f "$DESIGN" ] || { echo "docs_check: no DESIGN.md at $DESIGN" >&2; exit 1; }

MISSING=0

# --- 1. Env vars: every getenv("JITVS_...") in the sources. ---
VARS=$(grep -rhoE 'getenv\("JITVS_[A-Z_]+"\)' \
       "$ROOT/src" "$ROOT/bench" "$ROOT/tools" |
       sed 's/getenv("\(JITVS_[A-Z_]*\)")/\1/' | sort -u)

[ -n "$VARS" ] || { echo "docs_check: found no JITVS_* reads" >&2; exit 1; }

# The configuration table: lines of the form "| `JITVS_FOO` | ... |".
for V in $VARS; do
  if ! grep -q "^| \`$V\`" "$README"; then
    echo "docs_check: $V is read in src/, bench/ or tools/ but missing" \
         "from the README Configuration table" >&2
    MISSING=1
  fi
done

# --- 2. Module map: every src/ subdirectory named in ARCHITECTURE.md. ---
SUBDIRS=$(find "$ROOT/src" -mindepth 1 -maxdepth 1 -type d \
          -exec basename {} \; | sort)

[ -n "$SUBDIRS" ] || { echo "docs_check: no src/ subdirectories" >&2; exit 1; }

for D in $SUBDIRS; do
  if ! grep -q "src/$D" "$ARCH"; then
    echo "docs_check: src/$D is not mentioned in ARCHITECTURE.md" >&2
    MISSING=1
  fi
done

# --- 3. Qualified names: `Class::member` must still name something. ---
NAMES=$(grep -ohE '`[A-Za-z_][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*' \
        "$README" "$DESIGN" "$ARCH" | tr -d '`' | sort -u)

for N in $NAMES; do
  if ! grep -rqw -- "${N##*::}" "$ROOT/src" "$ROOT/tools" "$ROOT/bench"; then
    echo "docs_check: \`$N\` is named in the docs but ${N##*::} appears" \
         "nowhere in src/, tools/ or bench/" >&2
    MISSING=1
  fi
done

if [ "$MISSING" -ne 0 ]; then
  exit 1
fi
echo "docs_check: all $(echo "$VARS" | wc -l | tr -d ' ') JITVS_*" \
     "variables documented;" \
     "all $(echo "$SUBDIRS" | wc -l | tr -d ' ') src/ subsystems mapped;" \
     "all $(echo "$NAMES" | wc -l | tr -d ' ') qualified names found"
