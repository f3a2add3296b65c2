#!/usr/bin/env bash
# Two-binary smoke test: four prestige-server processes on loopback, one
# prestige-client driving them for 3 s. Passes when every /healthz goes green
# and the client reports at least one committed transaction.
#
# Servers listen on BASE_PORT+1..4, their admin endpoints on BASE_PORT+11..14.
# The client's return address is 127.0.0.1:9000+id (the binaries' demo
# convention), so the client ID is derived from BASE_PORT: two runs on one
# host need only different BASE_PORTs (not 64 apart).
set -euo pipefail

BASE_PORT=${BASE_PORT:-17000}
CLIENT_ID=$((BASE_PORT % 64 + 1))
HARD_TIMEOUT=60 # seconds any process of this script may live

cd "$(dirname "$0")/.."
dir=$(mktemp -d)
pids=()
cleanup() {
	if [ ${#pids[@]} -gt 0 ]; then
		kill "${pids[@]}" 2>/dev/null || true
		wait "${pids[@]}" 2>/dev/null || true
	fi
	rm -rf "$dir"
}
trap cleanup EXIT

go build -o "$dir/" ./cmd/prestige-server ./cmd/prestige-client

peers=""
for i in 1 2 3 4; do peers="$peers${peers:+,}127.0.0.1:$((BASE_PORT + i))"; done

for i in 1 2 3 4; do
	timeout "$HARD_TIMEOUT" "$dir/prestige-server" -id "$i" -n 4 -peers "$peers" \
		-listen "127.0.0.1:$((BASE_PORT + i))" -admin "127.0.0.1:$((BASE_PORT + 10 + i))" \
		>"$dir/server$i.log" 2>&1 &
	pids+=($!)
done

# healthz prints the HTTP status code of one replica's /healthz, or nothing
# while its admin port is not up yet. Plain bash: no curl dependency.
healthz() {
	exec 3<>"/dev/tcp/127.0.0.1/$1" || return 0
	printf 'GET /healthz HTTP/1.0\r\n\r\n' >&3
	local _ code
	read -r _ code _ <&3 || true
	exec 3<&- 3>&-
	echo "$code"
}

deadline=$((SECONDS + 10))
for i in 1 2 3 4; do
	until [ "$(healthz $((BASE_PORT + 10 + i)) 2>/dev/null)" = 200 ]; do
		if [ $SECONDS -ge $deadline ]; then
			echo "cluster-smoke: server $i never reported healthy; its log:" >&2
			cat "$dir/server$i.log" >&2
			exit 1
		fi
		sleep 0.1
	done
done
echo "cluster-smoke: 4 servers healthy"

timeout "$HARD_TIMEOUT" "$dir/prestige-client" -n 4 -peers "$peers" -id "$CLIENT_ID" -duration 3s | tee "$dir/client.out"

committed=$(awk '/^committed:/ {print $2}' "$dir/client.out")
if [ "${committed:-0}" -le 0 ]; then
	echo "cluster-smoke: the client committed nothing" >&2
	exit 1
fi
echo "cluster-smoke: ok ($committed committed; $(grep '^complaints:' "$dir/client.out"))"
