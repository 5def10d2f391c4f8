//go:build goexperiment.synctest

package conformance

import (
	"testing"
	"time"

	"attain/internal/simlane"
)

// simRun runs the suite against a fresh switchsim in one virtual-time
// bubble at the tier-1 tests' timeouts, and tears the switch down inside
// it (a bubble returns only once all of its goroutines have exited).
func simRun(t *testing.T, dpid uint64, timeout time.Duration) []Result {
	t.Helper()
	var results []Result
	var err error
	simlane.Run(func() {
		var teardown []func()
		defer func() {
			for i := len(teardown) - 1; i >= 0; i-- {
				teardown[i]()
			}
		}()
		conn, ports, bootErr := bootSUT(func(f func()) { teardown = append(teardown, f) }, nil)
		if err = bootErr; err != nil {
			return
		}
		results = Run(Config{Conn: conn, Ports: ports, Timeout: timeout, ExpectedDPID: dpid})
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

func TestSimSwitchsimPassesConformance(t *testing.T) {
	results := simRun(t, 0xD1, 2*time.Second)
	if passed, failed := Summary(results); len(results) < 16 || failed != 0 {
		t.Fatalf("%d passed, %d failed:\n%s", passed, failed, Format(results))
	}
}

func TestSimConformanceDetectsWrongDPID(t *testing.T) {
	results := simRun(t, 0x999, time.Second)
	if len(results) == 0 || results[0].Passed() {
		t.Fatalf("handshake check accepted wrong DPID:\n%s", Format(results))
	}
}
