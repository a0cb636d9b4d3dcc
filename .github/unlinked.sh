#!/bin/sh
# Lists the module's non-test functions that no main package links, one
# "file:line: package.[Type.]Func" per line. Every main package (commands,
# examples, benchmark) is built with inlining off, so no call hides inside its
# caller, and a function counts as linked when its symbol is in the text of any
# binary. Generic instantiations count for their declaration; bodyless
# (assembly) declarations are skipped. Run from the repository root:
#   sh .github/unlinked.sh
set -eu
export LC_ALL=C
mod=$(go list -m)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -gcflags=all=-l -o "$tmp/" $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...)
for bin in "$tmp"/*; do go tool nm "$bin"; done |
	sed -n 's/^ *[0-9a-f]* [Tt] //p' |
	sed -e ':a' -e 's/\[[^][]*\]//' -e 'ta' -e 's/(\*\([^)]*\))/\1/' -e 's/ .*//' | sort -u >"$tmp/linked"
git ls-files '*.go' | grep -v '_test\.go$' | xargs awk -v mod="$mod" '
	FNR == 1 { dir = FILENAME; sub(/\/?[^\/]*$/, "", dir); imp = dir == "" ? mod : mod "/" dir }
	/^package / && $2 == "main" { imp = "main" }
	/^func / && (/\{/ || /[(,]$/) {
		s = substr($0, 6); recv = ""
		if (s ~ /^\(/) { recv = substr(s, 2, index(s, ")") - 2); s = substr(s, index(s, ")") + 2)
			sub(/^.* /, "", recv); sub(/^\*/, "", recv); sub(/\[.*/, "", recv); recv = recv "." }
		match(s, /^[A-Za-z_0-9]+/); name = substr(s, 1, RLENGTH)
		if (name != "init" && name != "_") print imp "." recv name, FILENAME ":" FNR
	}' | sort >"$tmp/declared"
join -v 1 "$tmp/declared" "$tmp/linked" | awk -v mod="$mod/" '{ sub(mod, "", $1); print $2 ": " $1 }' | sort
