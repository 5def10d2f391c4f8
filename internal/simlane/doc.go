// Package simlane runs code in a virtual-time bubble for the test lane
// built with GOEXPERIMENT=synctest (make sim). Without that experiment the
// package is empty, and files that use it carry the same build constraint.
//
// Inside a bubble, time.Now, time.Sleep, timers and tickers read a
// synthetic clock. It jumps to the next timer once every goroutine in the
// bubble is durably blocked: on a channel, a select, a sync.Cond or a
// sleep, but not on a mutex or I/O. So a testbed at TimeScale 1 (which
// selects clock.Real) replays the paper's timeline in milliseconds of wall
// time, and repeats it to the nanosecond wherever same-instant ordering
// does not matter.
package simlane
