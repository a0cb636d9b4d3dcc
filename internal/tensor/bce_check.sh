#!/bin/sh
# Fails if the compiler left a bounds check inside the k loop of a GEMM
# micro-kernel, other than on the lines bce_allow.txt permits. Run from the
# repository root: sh internal/tensor/bce_check.sh
set -eu
src=internal/tensor/matmul.go
allow=internal/tensor/bce_allow.txt

# A range whose first line is not a k-loop header has gone stale.
grep -v '^#' "$allow" | while read -r first last _; do
	[ -n "$first" ] || continue
	sed -n "${first}p" "$src" | grep -q 'for p' || {
		echo "$allow: $src:$first is not a k-loop header; update the line ranges" >&2
		exit 1
	}
done

go build -gcflags=-d=ssa/check_bce/debug=1 ./internal/tensor 2>&1 |
	sed -n 's|^internal/tensor/matmul\.go:\([0-9]*\):.*Found Is.*InBounds.*|check \1|p' |
	awk -v src="$src" '
		$1 == "check" { hit[$2] = 1; next }
		/^#/ || NF == 0 { next }
		{
			for (i = 3; i <= NF; i++) ok[$i] = 1
			for (l = $1; l <= $2; l++)
				if (hit[l] && !ok[l]) { print src ":" l ": bounds check inside a micro-kernel k loop"; bad = 1 }
		}
		END { exit bad }
	' - "$allow"
