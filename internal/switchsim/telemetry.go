package switchsim

import (
	"attain/internal/telemetry"
)

// swCounters holds the switch's pre-resolved counters. Table misses,
// packet-ins sent and reconnects are the switch's one record of those
// events: they count whether or not telemetry is on, and Stats reads them.
// The others are telemetry only, nil when it is off, which makes every
// update a nil-check no-op (see package telemetry).
type swCounters struct {
	flowModsInstalled *telemetry.Counter
	flowModsEvicted   *telemetry.Counter
	packetInsBuffered *telemetry.Counter
	tableMisses       *telemetry.Counter
	reconnects        *telemetry.Counter
	live              [3]telemetry.Counter
}

// bind resolves the counters in place, so the live ones stay in c.
func (c *swCounters) bind(tele *telemetry.Telemetry, name string) {
	prefix := "switch." + name
	c.flowModsInstalled = tele.Counter(prefix + ".flow_mods_installed")
	c.flowModsEvicted = tele.Counter(prefix + ".flow_mods_evicted")
	c.packetInsBuffered = tele.Live(&c.live[0], prefix+".packet_ins_buffered")
	c.tableMisses = tele.Live(&c.live[1], prefix+".table_misses")
	c.reconnects = tele.Live(&c.live[2], prefix+".reconnects")
}
