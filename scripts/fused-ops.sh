#!/bin/sh
# Fails if the arm64 compiler fuses a multiply and an add (FMADDD,
# FMSUBD, FNMADDD, FNMSUBD) in a function whose float64 arithmetic
# decides output bytes: the Q2(b) blur and its Gaussian kernel (DESIGN.md
# §5.9 item 4; the codec is integer arithmetic, §5.9 item 2). The Go spec
# lets a compiler fuse x*y + z, even across statements, but not
# float64(x*y) + z; a fused op rounds once where the amd64 code rounds
# twice, so the bytes would depend on the architecture. An op is charged
# to the function whose source line it was compiled from, so an inlined
# copy is caught too; a line that calls math.FMA asks for its fused op.
# Run from the repository root.
set -eu

funcs='gaussianKernel gaussExp tapSum blurTapsGeneric blurTapsByteGeneric blurByte'

found=$(
	GOARCH=arm64 go build -gcflags="repro/internal/queries=-S" -o /dev/null ./internal/queries 2>&1 |
		grep -E '[[:space:]]F(N)?M(ADD|SUB)D[[:space:]]' | grep -oE '[^( ]+\.go:[0-9]+' | sort -u |
		while IFS=: read -r file line; do
			sed -n "${line}p" "$file" | grep -q 'math\.FMA(' && continue
			fn=$(awk -v n="$line" 'NR > n { exit } /^func / { f = $0 } END { print f }' "$file" |
				sed -E 's/^func (\([^)]*\) )?([A-Za-z0-9_]+).*/\2/')
			for f in $funcs; do
				if [ "$f" = "$fn" ]; then
					echo "$file:$line: $fn"
				fi
			done
		done
)
if [ -n "$found" ]; then
	echo "$found" >&2
	echo "fused-ops: the arm64 compiler fuses a multiply-add in the functions above; round the product explicitly, float64(x*y) + z" >&2
	exit 1
fi
