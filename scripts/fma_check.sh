#!/usr/bin/env bash
# fma_check.sh — fused-multiply-add gate for the GEMM dot kernels.
#
# Go may fuse x*y + z into one FMA instruction, which rounds once instead
# of twice. amd64 never does; arm64, ppc64le, s390x, riscv64 and loong64
# do, unless the product is converted explicitly, float64(x*y). MulNT and
# MulNTWeighted promise one running sum of rounded products per entry
# (DESIGN.md §6), so their kernels carry that conversion. This script
# cross-builds cmd/symprop for arm64 and disassembles the linked kernels:
#
#   - linalg.dot4x2 and linalg.dotW4x2, the 4x2 register tiles;
#   - linalg.mulNTRange and linalg.mulNTWeightedRange, the row walks of
#     MulNT and MulNTWeighted and of their plans, which inline the scalar
#     tails.
#
# It fails on any FMADDD, FMSUBD, FNMADDD or FNMSUBD among them, and also
# when one of the symbols is missing, so that a renamed or inlined kernel
# cannot pass by default.
#
# Usage: scripts/fma_check.sh
set -euo pipefail

dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
bin="$dir/symprop-arm64"
GOOS=linux GOARCH=arm64 go build -o "$bin" ./cmd/symprop

status=0
for sym in 'dot4x2$' 'dotW4x2$' 'mulNTRange$' 'mulNTWeightedRange$'; do
    asm=$(go tool objdump -s "internal/linalg\.$sym" "$bin")
    name=linalg.${sym%\$}
    funcs=$(grep -c '^TEXT' <<<"$asm" || true)
    if [ "$funcs" -eq 0 ]; then
        echo "fma-check: FAIL: no symbol matches $name in the arm64 build" >&2
        status=1
        continue
    fi
    fmas=$(grep -Ew 'FMADDD|FMSUBD|FNMADDD|FNMSUBD' <<<"$asm" || true)
    if [ -n "$fmas" ]; then
        echo "fma-check: FAIL: fused multiply-adds in $name:" >&2
        echo "$fmas" >&2
        status=1
        continue
    fi
    echo "fma-check: $name: $funcs function(s), no FMA"
done
exit $status
