# daemon.sh — eschedd boot and drain helpers, sourced by servegate.sh,
# carbongate.sh and flightgate.sh (not run on its own).
#
# The sourcing gate sets $gate (its name, the prefix of every message) and
# $tmp (its scratch directory, holding the built eschedd), then installs
# `trap cleanup EXIT`. boot_daemon leaves the daemon's stdout and stderr
# in $tmp/daemon.out and $tmp/daemon.err.

daemon_pid=""

# cleanup kills a daemon still running (a gate that failed mid-way) and
# removes $tmp.
cleanup() {
	if [ -n "$daemon_pid" ] && kill -0 "$daemon_pid" 2>/dev/null; then
		kill -KILL "$daemon_pid" 2>/dev/null || true
	fi
	rm -rf "$tmp"
}

# boot_daemon ARGS...: start `eschedd serve ARGS...` on an ephemeral
# loopback port, wait (up to 10s) until it has bound, and set $addr.
boot_daemon() {
	rm -f "$tmp/addr"
	"$tmp/eschedd" serve -addr 127.0.0.1:0 -addrfile "$tmp/addr" "$@" \
		>"$tmp/daemon.out" 2>"$tmp/daemon.err" &
	daemon_pid=$!
	i=0
	while [ ! -s "$tmp/addr" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "$gate: daemon did not bind within 10s" >&2
			cat "$tmp/daemon.err" >&2
			exit 1
		fi
		if ! kill -0 "$daemon_pid" 2>/dev/null; then
			echo "$gate: daemon exited during startup" >&2
			cat "$tmp/daemon.err" >&2
			exit 1
		fi
		sleep 0.1
	done
	addr="$(cat "$tmp/addr")"
}

# drain_daemon: SIGTERM the daemon and fail the gate unless the drain
# exits 0.
drain_daemon() {
	kill -TERM "$daemon_pid"
	drain_rc=0
	wait "$daemon_pid" || drain_rc=$?
	daemon_pid=""
	if [ "$drain_rc" -ne 0 ]; then
		echo "$gate: daemon exited $drain_rc" >&2
		cat "$tmp/daemon.err" >&2
		exit 1
	fi
}
