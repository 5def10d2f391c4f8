package inject

import (
	"fmt"

	"attain/internal/core/model"
	"attain/internal/telemetry"
)

// connCounters holds the per-connection telemetry counters, resolved once
// at construction so the executor hot path is a single atomic add per
// update (or a nil-check no-op when telemetry is disabled — all fields are
// nil then, which *telemetry.Counter treats as the inert counter).
type connCounters struct {
	seen       *telemetry.Counter
	passed     *telemetry.Counter
	dropped    *telemetry.Counter
	modified   *telemetry.Counter
	injected   *telemetry.Counter
	duplicated *telemetry.Counter
	delayed    *telemetry.Counter
	fuzzed     *telemetry.Counter
	ruleFires  *telemetry.Counter
	// passthrough counts messages forwarded byte for byte without ever
	// decoding the payload; materialized counts messages whose bytes were
	// decoded (property access through Materialize) or rewritten (an
	// in-place MODIFYFIELD). The two partition seen, making the zero-copy
	// fast path observable.
	passthrough  *telemetry.Counter
	materialized *telemetry.Counter
	// label is connLabel(conn), resolved once so per-message trace events
	// do not concatenate strings on the hot path.
	label string
	// watch[id] reports whether compiled rule id watches this connection
	// (see program.bindWatches). Sessions exist only for proxied
	// connections, whose counters all carry one.
	watch []bool
}

// nopConnCounters serves lookups for connections the injector does not
// proxy (e.g. SENDSTORED targeting a foreign channel in a distributed
// setup); its nil fields make every update a no-op.
var nopConnCounters = &connCounters{}

// buildConnCounters resolves counters for every proxied connection. The
// returned map is read-only after construction, so concurrent lookups from
// the executor and async-delay goroutines need no locking.
func buildConnCounters(tele *telemetry.Telemetry, conns []model.Conn) map[model.Conn]*connCounters {
	m := make(map[model.Conn]*connCounters, len(conns))
	for _, conn := range conns {
		prefix := fmt.Sprintf("injector.%s:%s", conn.Controller, conn.Switch)
		m[conn] = &connCounters{
			seen:         tele.Counter(prefix + ".seen"),
			passed:       tele.Counter(prefix + ".passed"),
			dropped:      tele.Counter(prefix + ".dropped"),
			modified:     tele.Counter(prefix + ".modified"),
			injected:     tele.Counter(prefix + ".injected"),
			duplicated:   tele.Counter(prefix + ".duplicated"),
			delayed:      tele.Counter(prefix + ".delayed"),
			fuzzed:       tele.Counter(prefix + ".fuzzed"),
			ruleFires:    tele.Counter(prefix + ".rule_fires"),
			passthrough:  tele.Counter(prefix + ".passthrough"),
			materialized: tele.Counter(prefix + ".materialized"),
			label:        connLabel(conn),
		}
	}
	return m
}

// countersFor returns conn's counters, or the inert set for unknown conns.
func (inj *Injector) countersFor(conn model.Conn) *connCounters {
	if c, ok := inj.counters[conn]; ok {
		return c
	}
	return nopConnCounters
}

// connLabel renders conn for trace events ("c1:s1").
func connLabel(conn model.Conn) string {
	return string(conn.Controller) + ":" + string(conn.Switch)
}
