#!/usr/bin/env bash
# Regenerates cmd/mosaic-serve/default.pgo, the CPU profile `go build`
# applies to mosaic-serve (-pgo=auto). Run from the repository root:
#
#   bash cmd/mosaic-serve/pgo.sh [SECONDS]    # default 20 per load
#
# It builds mosaic-serve without a profile, runs it under three loads
# (pgoload.go) and takes a CPU profile from each node's -debug-addr
# (/debug/pprof/profile) while the load runs:
#   - ingest: one -sync node taking single traces, then batches;
#   - query:  one node reading results and answering boolean queries
#             over a store larger than its read cache;
#   - ring:   three nodes (-replicas 2 -replica-ack 1) taking batches.
# The five profiles are merged with `go tool pprof -proto` into
# default.pgo. Servers listen on 127.0.0.1 ports from PGO_PORT (default
# 18400) up; everything else lives in a temporary directory, removed on
# exit with every process the script started.
set -euo pipefail
secs=${1:-20}
port=${PGO_PORT:-18400}
out=cmd/mosaic-serve/default.pgo
work=$(mktemp -d)
pids=()
cleanup() {
	for p in "${pids[@]}"; do kill "$p" 2>/dev/null || true; done
	wait 2>/dev/null || true
	rm -rf "$work"
}
trap cleanup EXIT

go build -pgo=off -o "$work/mosaic-serve" ./cmd/mosaic-serve
go build -o "$work/pgoload" ./cmd/mosaic-serve/pgoload.go

# serve NAME HTTP DEBUG ARGS...: starts a node and waits until it answers.
serve() {
	local name=$1 http=$2 debug=$3
	shift 3
	"$work/mosaic-serve" -store "$work/$name" -addr "127.0.0.1:$http" \
		-debug-addr "127.0.0.1:$debug" -log-level warn "$@" 2>"$work/$name.log" &
	pids+=($!)
	for _ in $(seq 100); do
		curl -sf "http://127.0.0.1:$http/healthz" >/dev/null && return
		sleep 0.1
	done
	echo "pgo.sh: $name did not start:" >&2
	cat "$work/$name.log" >&2
	exit 1
}

# load NAME MODE "DEBUG..." URL...: runs pgoload and profiles each debug
# port for the length of the timed load.
load() {
	local name=$1 mode=$2 debug=$3
	shift 3
	"$work/pgoload" "$mode" "$secs" "$@" >"$work/$name.out" &
	local driver=$!
	until grep -q ready "$work/$name.out"; do
		kill -0 "$driver" 2>/dev/null || { echo "pgo.sh: the $mode load failed" >&2; exit 1; }
		sleep 0.1
	done
	local fetch=()
	for d in $debug; do
		curl -sf -o "$work/$name-$d.pprof" "http://127.0.0.1:$d/debug/pprof/profile?seconds=$secs" &
		fetch+=($!)
	done
	for p in "${fetch[@]}" "$driver"; do wait "$p"; done
}

serve ingest $port $((port + 1)) -sync
load ingest ingest "$((port + 1))" "http://127.0.0.1:$port"

serve query $((port + 2)) $((port + 3)) -cache-mb 1
load query query "$((port + 3))" "http://127.0.0.1:$((port + 2))"

peers=""
for i in 0 1 2; do
	peers+="${peers:+,}n$i=127.0.0.1:$((port + 10 + i))=127.0.0.1:$((port + 20 + i))"
done
for i in 0 1 2; do
	serve "ring$i" $((port + 20 + i)) $((port + 30 + i)) -node "n$i" \
		-rpc-addr "127.0.0.1:$((port + 10 + i))" -peers "$peers" -replicas 2 -replica-ack 1
done
load ring ring "$((port + 30)) $((port + 31)) $((port + 32))" \
	"http://127.0.0.1:$((port + 20))" "http://127.0.0.1:$((port + 21))" "http://127.0.0.1:$((port + 22))"

for p in "$work"/*.pprof; do
	echo "$(basename "$p" .pprof): $(go tool pprof -top -nodecount=1 "$p" 2>/dev/null | grep -o 'Total samples = [^ ]*')"
done
go tool pprof -proto "$work"/*.pprof >"$out"
echo "wrote $out ($(wc -c <"$out") bytes) from $(ls "$work"/*.pprof | wc -l) profiles"
