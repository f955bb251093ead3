#!/usr/bin/env bash
# docscheck.sh — lint the documentation tree so it cannot silently rot.
#
# Four checks, all hard CI failures:
#
#  1. Links resolve. Every relative markdown link in README.md and
#     docs/*.md must point at a file or directory that exists in the
#     repo (anchors are stripped; absolute http(s) URLs and
#     repo-external ../ paths like the CI badge are skipped — we lint
#     what we can verify offline).
#
#  2. Flags are documented. Every flag registered by cmd/cqserve,
#     cmd/cqload, and cmd/cqeval (any flag.X / fs.X registration,
#     including fs.Var) must appear in docs/operations.md as `-name`.
#     Add a flag without a docs row and this fails; the reverse —
#     documenting a flag that no longer exists — fails too, so removed
#     flags cannot linger in the table.
#
#  3. The layer map is complete. The "Layer map" section of
#     docs/architecture.md must name every internal/* package directory,
#     and every internal/* name in it must be a package directory.
#
#  4. The serving binaries stay lean. `go list -deps` of cmd/cqserve,
#     cmd/cqload and cmd/cqeval must not reach internal/xprop, onethree,
#     succinct, treebank or dominance — the paper-experiment packages the
#     layer map says the serving binaries never link — nor internal/hornsat,
#     the test oracle of internal/consistency.
#
# Exit status: 0 clean, 1 lint failure, 2 usage/IO error.

set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# ---- 1. relative links -------------------------------------------------
for doc in README.md docs/*.md; do
	[ -f "$doc" ] || continue
	dir="$(dirname "$doc")"
	# Markdown inline links: [text](target). One per line via grep -o.
	while IFS= read -r target; do
		case "$target" in
		*://* | '#'* | ../*) continue ;; # external, same-page anchor, repo-external
		esac
		path="${target%%#*}" # strip anchor
		[ -n "$path" ] || continue
		if [ ! -e "$dir/$path" ]; then
			echo "FAIL $doc: broken link -> $target" >&2
			fail=1
		fi
	done < <(grep -o '\[[^]]*\]([^)]*)' "$doc" | sed 's/.*(\(.*\))/\1/')
done

# ---- 2. flag coverage --------------------------------------------------
opsdoc=docs/operations.md
if [ ! -f "$opsdoc" ]; then
	echo "docscheck: missing $opsdoc" >&2
	exit 2
fi

# Flags a command registers: flag.String("name", ...) / fs.Bool("name", ...)
# and fs.Var(&v, "name", ...). Emits one name per line.
registered_flags() {
	grep -ho '\(flag\|fs\)\.\(String\|Int\|Int64\|Bool\|Duration\|Float64\|Uint\|Uint64\)("[^"]*"' "$1"/*.go |
		sed 's/.*("\([^"]*\)".*/\1/'
	grep -ho '\(flag\|fs\)\.Var([^,]*, *"[^"]*"' "$1"/*.go |
		sed 's/.*, *"\([^"]*\)".*/\1/'
}

# Flags the operations doc claims: backquoted `-name` table cells.
documented_flags() {
	grep -o '`-[a-z][a-z0-9-]*`' "$opsdoc" | sed 's/`-\(.*\)`/\1/' | sort -u
}

doced="$(documented_flags)"
for cmd in cmd/cqserve cmd/cqload cmd/cqeval; do
	while IFS= read -r name; do
		if ! grep -qx "$name" <<<"$doced"; then
			echo "FAIL $cmd: flag -$name not documented in $opsdoc" >&2
			fail=1
		fi
	done < <(registered_flags "$cmd" | sort -u)
done

# Reverse direction: every documented flag must still be registered
# somewhere (any of the three commands — names like -max-inflight are
# intentionally shared between cqserve and cqload's -self server).
allflags="$( (registered_flags cmd/cqserve; registered_flags cmd/cqload; registered_flags cmd/cqeval) | sort -u)"
while IFS= read -r name; do
	[ -n "$name" ] || continue
	if ! grep -qx "$name" <<<"$allflags"; then
		echo "FAIL $opsdoc: documents flag -$name, which no command registers" >&2
		fail=1
	fi
done <<<"$doced"

# ---- 3. layer map covers internal/ -------------------------------------
archdoc=docs/architecture.md
if [ ! -f "$archdoc" ]; then
	echo "docscheck: missing $archdoc" >&2
	exit 2
fi
mapped="$(awk '/^## Layer map/ {on = 1; next} /^## / {on = 0} on' "$archdoc" |
	grep -o 'internal/[a-z0-9_]*' | sort -u)"
present="$(for d in internal/*/; do echo "${d%/}"; done | sort -u)"
while IFS= read -r pkg; do
	[ -n "$pkg" ] || continue
	if ! grep -qx "$pkg" <<<"$mapped"; then
		echo "FAIL $archdoc: layer map does not name package $pkg" >&2
		fail=1
	fi
done <<<"$present"
while IFS= read -r pkg; do
	[ -n "$pkg" ] || continue
	if ! grep -qx "$pkg" <<<"$present"; then
		echo "FAIL $archdoc: layer map names $pkg, which does not exist" >&2
		fail=1
	fi
done <<<"$mapped"

# ---- 4. serving binaries never link the experiment packages -------------
module="$(go list -m)"
deps="$(go list -deps ./cmd/cqserve ./cmd/cqload ./cmd/cqeval)"
for pkg in xprop onethree succinct treebank dominance hornsat; do
	if grep -qx "$module/internal/$pkg" <<<"$deps"; then
		echo "FAIL serving binaries (cqserve, cqload, cqeval) link internal/$pkg" >&2
		fail=1
	fi
done

if [ "$fail" -ne 0 ]; then
	echo "docscheck: documentation lint failed" >&2
	exit 1
fi
echo "docscheck: links resolve, all flags documented, layer map complete, serving binaries lean"
