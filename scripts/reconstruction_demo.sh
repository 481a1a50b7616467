#!/usr/bin/env bash
# End-to-end tour of the command-line interface: generate a two-bump phantom,
# take plane-integral and line-integral data, reconstruct four ways, and run
# a quick property check.  The wavelet synthesis reconstructs on the default
# wavelet's own grid (N=32, h=0.3), not the phantom's, so it is given no
# reference.  All artifacts land in a work directory (first argument,
# default: a fresh temp dir).
set -euo pipefail

work=${1:-$(mktemp -d)}
mkdir -p "$work"
echo "work directory: $work"

if command -v simrad >/dev/null 2>&1; then
    run=(simrad)
else
    run=(python3 -m simrad.cli)
fi

"${run[@]}" gen --phantom mixture --n 48 --h 0.2 --out "$work/phantom.svol"

"${run[@]}" radon --in "$work/phantom.svol" --ntheta 24 --nphi 24 \
    --nt 97 --tmax 4.8 --out "$work/plane.sgm"
"${run[@]}" xray --in "$work/phantom.svol" --ntheta 24 --nphi 24 \
    --nu 48 --nv 48 --umax 4.8 --out "$work/line.sgm"

echo "-- filtered backprojection (plane data) --"
"${run[@]}" invert-fbp --in "$work/plane.sgm" --n 48 --h 0.2 \
    --reference "$work/phantom.svol" --out "$work/rec_fbp.svol"

echo "-- direct Fourier (plane data) --"
"${run[@]}" invert-fourier --in "$work/plane.sgm" --n 48 --h 0.2 \
    --reference "$work/phantom.svol" --out "$work/rec_df_plane.svol"

echo "-- direct Fourier (line data) --"
"${run[@]}" invert-fourier --in "$work/line.sgm" --n 48 --h 0.2 \
    --reference "$work/phantom.svol" --out "$work/rec_df_line.svol"

echo "-- wavelet frame synthesis (plane data) --"
"${run[@]}" invert-wavelet --in "$work/plane.sgm" --out "$work/rec_wavelet.svol"

echo "-- property check on the demo grid --"
"${run[@]}" verify --check fiber --n 48 --h 0.2 --ntheta 24 --nphi 24 \
    --nt 97 --tmax 4.8 --summary-out "$work/report.json"

echo "artifacts:"
ls -l "$work"
