package inject

import (
	"fmt"

	"attain/internal/core/model"
	"attain/internal/telemetry"
)

// connCounters is a connection's one record of what the injector did to
// its messages. The quantities Stats reports count whether or not
// telemetry is on, and are registered as injector.<ctrl>:<switch>.<name>
// when it is (delivered has no registered name); passed, passthrough and
// materialized are telemetry only, nil when it is off, which
// *telemetry.Counter treats as the inert counter. Every update is one
// atomic add on a pointer resolved at construction.
type connCounters struct {
	seen       *telemetry.Counter
	delivered  *telemetry.Counter
	dropped    *telemetry.Counter
	duplicated *telemetry.Counter
	// delayed counts frames delivered late: one per outgoing frame that
	// DELAYMESSAGE held, however many delays it accumulated.
	delayed   *telemetry.Counter
	modified  *telemetry.Counter
	fuzzed    *telemetry.Counter
	injected  *telemetry.Counter
	ruleFires *telemetry.Counter
	passed    *telemetry.Counter
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
	// live backs the Stats counters, so a connection's record is one
	// allocation.
	live [9]telemetry.Counter
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
		prefix := fmt.Sprintf("injector.%s:%s.", conn.Controller, conn.Switch)
		c := &connCounters{label: connLabel(conn)}
		live := func(i int, name string) *telemetry.Counter { return tele.Live(&c.live[i], prefix+name) }
		c.seen = live(0, "seen")
		c.delivered = &c.live[1]
		c.dropped = live(2, "dropped")
		c.duplicated = live(3, "duplicated")
		c.delayed = live(4, "delayed")
		c.modified = live(5, "modified")
		c.fuzzed = live(6, "fuzzed")
		c.injected = live(7, "injected")
		c.ruleFires = live(8, "rule_fires")
		c.passed = tele.Counter(prefix + "passed")
		c.passthrough = tele.Counter(prefix + "passthrough")
		c.materialized = tele.Counter(prefix + "materialized")
		m[conn] = c
	}
	return m
}

// stats reads the connection's record.
func (c *connCounters) stats() Stats {
	return Stats{
		Seen:       c.seen.Value(),
		Delivered:  c.delivered.Value(),
		Dropped:    c.dropped.Value(),
		Duplicated: c.duplicated.Value(),
		Delayed:    c.delayed.Value(),
		Modified:   c.modified.Value(),
		Fuzzed:     c.fuzzed.Value(),
		Injected:   c.injected.Value(),
		RuleFires:  c.ruleFires.Value(),
	}
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
