#!/usr/bin/env sh
# Runs the full benchmark suite with allocation stats and records a
# plain-text summary as BENCH_<date>.txt (benchstat input) plus one
# normalized entry in the cumulative BENCH_TRAJECTORY.json. The raw
# `go test -json` event stream is no longer written: it was multi-MB
# per run and carried nothing the .txt + trajectory don't (old
# BENCH_<date>.json artifacts are gitignored).
#
# Usage: scripts/bench.sh [extra go test args...]
set -eu

cd "$(dirname "$0")/.."
date="$(date +%Y%m%d)"
txt="BENCH_${date}.txt"

go test -run '^$' -bench . -benchmem "$@" ./... | tee "$txt"

echo "wrote $txt" >&2

# Cumulative trajectory: every run appends one normalized entry to
# BENCH_TRAJECTORY.json (a JSON array, one object per run with ns/op,
# B/op and allocs/op per benchmark), so performance history survives
# beyond the two most recent runs. Each entry carries the environment
# it ran in — commit, Go version, GOMAXPROCS, nproc and CPU model — so
# two entries compare like for like. Benchmark names keep go test's -N
# suffix (a run with -cpu 1,2 reports both), and N is also recorded as
# the benchmark's "procs" field (1 when go test prints no suffix).
traj="BENCH_TRAJECTORY.json"
stamp="$(date +%Y-%m-%dT%H:%M:%S)"
commit="$(git rev-parse --verify --quiet HEAD 2>/dev/null || echo unknown)"
if [ "$commit" != unknown ] && ! git diff --quiet HEAD; then
	commit="${commit}-dirty"
fi
goversion="$(go env GOVERSION)"
ncpu="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)"
gomaxprocs="${GOMAXPROCS:-$ncpu}"
entry="$(awk -v date="$date" -v stamp="$stamp" -v commit="$commit" \
	-v goversion="$goversion" -v gomaxprocs="$gomaxprocs" -v ncpu="$ncpu" '
	/^cpu: / && cpu == "" {
		cpu = substr($0, 6)
		gsub(/["\\]/, "", cpu)
	}
	/^Benchmark/ {
		name = $1
		procs = 1
		if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1)
		ns = ""; by = ""; al = ""; rss = ""; bpn = ""
		for (i = 2; i <= NF; i++) {
			if ($i == "ns/op") ns = $(i - 1)
			if ($i == "B/op") by = $(i - 1)
			if ($i == "allocs/op") al = $(i - 1)
			if ($i == "peak_rss_bytes") rss = $(i - 1)
			if ($i == "bytes_per_node") bpn = $(i - 1)
		}
		if (ns == "") next
		b = sprintf("\"%s\":{\"procs\":%s,\"ns_op\":%s", name, procs, ns)
		if (by != "") b = b ",\"bytes_op\":" by
		if (al != "") b = b ",\"allocs_op\":" al
		if (rss != "") b = b ",\"peak_rss_bytes\":" rss
		if (bpn != "") b = b ",\"bytes_per_node\":" bpn
		b = b "}"
		benches = benches (benches == "" ? "" : ",") b
	}
	END {
		printf "{\"date\":\"%s\",\"stamp\":\"%s\",\"commit\":\"%s\",\"go\":\"%s\",", date, stamp, commit, goversion
		printf "\"gomaxprocs\":%s,\"nproc\":%s,\"cpu\":\"%s\",\"benchmarks\":{%s}}", gomaxprocs, ncpu, cpu, benches
	}' "$txt")"
if [ -s "$traj" ]; then
	# Drop the closing bracket, append the new entry, close the array.
	sed '$d' "$traj" >"$traj.tmp"
	printf ',\n%s\n]\n' "$entry" >>"$traj.tmp"
	mv "$traj.tmp" "$traj"
else
	printf '[\n%s\n]\n' "$entry" >"$traj"
fi
echo "appended run to $traj" >&2

# Headline telemetry cost: BenchmarkObsOverhead compares the packet hot
# path baseline against metrics/latency-tracker/JSONL-export modes; the
# allocs/op columns must stay identical (budget: +1; see DESIGN.md §7).
grep 'BenchmarkObsOverhead' "$txt" >&2 || true

# Headline robustness cost: BenchmarkHandlePacketRobust enables
# suspicion, pull backoff and quarantine on the packet hot path; its
# allocs/op must equal BenchmarkHandlePacket's (budget: +0; DESIGN.md §9).
grep 'BenchmarkHandlePacket' "$txt" >&2 || true

# Headline maintenance cost: the steady-state refresh benchmarks report
# broadcasts/op and the digest suppression ratio (see DESIGN.md §8).
grep 'BenchmarkRefreshSteadyState' "$txt" >&2 || true

# Headline scale cost: grid-indexed recompute vs the O(n²) reference and
# the 2.5k-node refresh epoch (see DESIGN.md §11).
grep 'BenchmarkRecompute10k\|BenchmarkRefreshEpoch2500\|BenchmarkE15Scale' "$txt" >&2 || true

# Headline footprint: the E16 benchmarks report peak_rss_bytes and
# bytes_per_node, which the trajectory entry records so the memory
# history rides beside the timing history (see DESIGN.md §13).
grep 'BenchmarkE16' "$txt" >&2 || true

# Delta against the most recent prior run. The .txt files are benchstat
# input; use benchstat when installed, otherwise fall back to an awk
# summary of ns/op and allocs/op changes per benchmark.
prev="$(ls -1 BENCH_*.txt 2>/dev/null | grep -v "^${txt}\$" | sort | tail -n 1)" || prev=""
if [ -n "$prev" ]; then
	echo "--- delta vs $prev ---" >&2
	if command -v benchstat >/dev/null 2>&1; then
		benchstat "$prev" "$txt" >&2 || true
	else
		awk -v prev="$prev" '
			/^Benchmark/ {
				ns = ""; al = ""
				for (i = 2; i <= NF; i++) {
					if ($i == "ns/op") ns = $(i - 1)
					if ($i == "allocs/op") al = $(i - 1)
				}
				if (FILENAME == prev) { ons[$1] = ns; oal[$1] = al; next }
				if (!($1 in ons)) next
				line = sprintf("%-50s", $1)
				if (ns != "" && ons[$1] + 0 > 0)
					line = line sprintf("  ns/op %12.0f -> %12.0f (%+.1f%%)",
						ons[$1], ns, (ns - ons[$1]) / ons[$1] * 100)
				if (al != "" && oal[$1] + 0 > 0)
					line = line sprintf("  allocs/op %8d -> %8d (%+.1f%%)",
						oal[$1], al, (al - oal[$1]) / oal[$1] * 100)
				print line
			}' "$prev" "$txt" >&2 || true
	fi
fi
