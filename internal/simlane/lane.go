//go:build goexperiment.synctest

package simlane

import "testing/synctest"

// Run calls f in a new bubble and returns once every goroutine f started
// has exited. It is the repository's only call into testing/synctest: Go
// 1.25 replaces synctest.Run with synctest.Test(t, f), and this is the one
// line that changes then.
func Run(f func()) { synctest.Run(f) }
