#!/usr/bin/env bash
# Non-test Go line counts per package (plain `wc -l`: code, comments and
# blanks), then the total — the figure ROADMAP aim 2 tracks. The
# benchmark module is excluded: it measures the repo, it is not part of
# it. No threshold; simplicity PRs quote this output.
set -euo pipefail
cd "$(dirname "$0")/.."
counts=$(git ls-files -co --exclude-standard -- '*.go' |
  grep -v -e '_test\.go$' -e '^benchmark/' |
  xargs wc -l |
  awk '$2 != "total" { dir = $2; if (!sub("/[^/]*$", "", dir)) dir = "."; n[dir] += $1 }
       END { for (d in n) printf "%7d  %s\n", n[d], d }' |
  sort -k2)
echo "$counts"
echo "$counts" | awk '{ t += $1 } END { printf "%7d  total\n", t }'
