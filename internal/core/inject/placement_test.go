package inject

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"attain/internal/core/lang"
	"attain/internal/core/model"
	"attain/internal/netem"
	"attain/internal/openflow"
)

// incr is the §VIII-B counter idiom PREPEND(d, SHIFT(d)+1).
func incr(deque string) lang.Action {
	return lang.DequePush{
		Deque: deque, Front: true,
		Value: lang.Arith{Op: lang.OpAdd, L: lang.DequeTake{Deque: deque}, R: lang.Lit{Value: int64(1)}},
	}
}

// echoLoad proxies perSession ECHO_REQUESTs on every control channel of
// sys through an injector with the given loop count, waits until all of
// them are seen, and returns the injector and the total seen. Every deque
// in seed starts with one int64(0).
func echoLoad(t *testing.T, sys *model.System, attack *lang.Attack, shards, perSession int, seed ...string) (*Injector, uint64) {
	t.Helper()
	tr := netem.NewBufferedMemTransport(0)
	am := model.NewAttackerModel()
	for _, conn := range sys.ControlPlane {
		am.Grant(conn, model.AllCapabilities)
	}
	inj, err := New(Config{
		System: sys, Attacker: am, Attack: attack, Transport: tr,
		Shards: shards, LeanLog: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range seed {
		inj.Storage().Deque(d).Prepend(int64(0))
	}
	var burst []byte
	for i := 0; i < perSession; i++ {
		burst, err = openflow.AppendMessage(burst, uint32(i+1), &openflow.EchoRequest{})
		if err != nil {
			t.Fatal(err)
		}
	}
	// Each controller side counts off one session's burst; rules here
	// drop nothing, so once every burst has arrived, every message has
	// been processed.
	var delivered sync.WaitGroup
	delivered.Add(len(sys.ControlPlane))
	ln, err := tr.Listen("c1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				_, _ = io.CopyN(io.Discard, c, int64(len(burst)))
				delivered.Done()
				_, _ = io.Copy(io.Discard, c)
			}()
		}
	}()
	if err := inj.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inj.Stop)

	for _, conn := range sys.ControlPlane {
		c, err := tr.Dial(inj.ProxyAddrFor(conn))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		go func() { _, _ = c.Write(burst) }()
	}
	done := make(chan struct{})
	go func() {
		delivered.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("shards=%d: not every burst reached the controller", shards)
	}
	inj.Barrier()
	var seen uint64
	for _, conn := range sys.ControlPlane {
		seen += inj.Log().Stats(conn).Seen
	}
	if want := uint64(len(sys.ControlPlane) * perSession); seen != want {
		t.Fatalf("shards=%d: seen %d, want %d", shards, seen, want)
	}
	return inj, seen
}

// counter reads deque d as Algorithm 1 leaves a PREPEND(d, SHIFT(d)+1)
// counter: one entry, the count.
func counter(t *testing.T, inj *Injector, d string) int64 {
	t.Helper()
	vals := inj.Storage().Deque(d).Snapshot()
	if len(vals) != 1 {
		t.Fatalf("deque %s holds %d entries %v, want 1", d, len(vals), vals)
	}
	n, _ := vals[0].(int64)
	return n
}

// TestCounterExactAtAnyLoopCount runs the §VIII-B counter on 32 sessions
// at 1, 2, 4 and 8 loops. The rule watches every connection and touches Δ,
// so every session runs on loop 0 and the count equals the messages seen,
// as under Algorithm 1's single executor.
func TestCounterExactAtAnyLoopCount(t *testing.T) {
	sys := switchesSystem(32)
	a := lang.NewAttack("count-all", "s0")
	a.AddState(&lang.State{
		Name: "s0",
		Rules: []*lang.Rule{{
			Name: "count", Conns: sys.ControlPlane, Caps: model.AllCapabilities,
			Cond:    isType("ECHO_REQUEST"),
			Actions: []lang.Action{incr("n")},
		}},
	})
	for _, shards := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprint(shards), func(t *testing.T) {
			inj, seen := echoLoad(t, sys, a, shards, 500, "n")
			if n := counter(t, inj, "n"); uint64(n) != seen {
				t.Errorf("counter = %d, want Seen = %d", n, seen)
			}
		})
	}
}

// TestTwoStateAlternationSerial flips σ between s0 and s1 on every
// ECHO_REQUEST of 32 sessions, counting the messages each state took.
// Under any serial order the two counts sum to Seen and differ by at most
// one.
func TestTwoStateAlternationSerial(t *testing.T) {
	sys := switchesSystem(32)
	a := lang.NewAttack("flip", "s0")
	for _, st := range []struct{ name, deque, next string }{{"s0", "a", "s1"}, {"s1", "b", "s0"}} {
		a.AddState(&lang.State{
			Name: st.name,
			Rules: []*lang.Rule{{
				Name: "flip-" + st.name, Conns: sys.ControlPlane, Caps: model.AllCapabilities,
				Cond:    isType("ECHO_REQUEST"),
				Actions: []lang.Action{incr(st.deque), lang.GotoState{State: st.next}},
			}},
		})
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprint(shards), func(t *testing.T) {
			inj, seen := echoLoad(t, sys, a, shards, 250, "a", "b")
			na, nb := counter(t, inj, "a"), counter(t, inj, "b")
			if uint64(na+nb) != seen {
				t.Errorf("a + b = %d + %d, want Seen = %d", na, nb, seen)
			}
			if d := na - nb; d < -1 || d > 1 {
				t.Errorf("|a - b| = |%d - %d| > 1", na, nb)
			}
		})
	}
}

// TestPlacement pins where sessions run. An attack that shares σ or Δ
// binds every watched connection to loop 0 and spreads the rest by hash;
// an attack that shares neither spreads every connection by hash.
func TestPlacement(t *testing.T) {
	sys := switchesSystem(32)
	watched, unwatched := sys.ControlPlane[:8], sys.ControlPlane[8:]
	rule := func(actions ...lang.Action) *lang.Attack {
		a := lang.NewAttack("placed", "s0")
		a.AddState(&lang.State{Name: "s0", Rules: []*lang.Rule{{
			Name: "r", Conns: watched, Caps: model.AllCapabilities,
			Cond: isType("ECHO_REQUEST"), Actions: actions,
		}}})
		a.AddState(&lang.State{Name: "s1"})
		return a
	}
	counterCond := rule(lang.DropMessage{})
	counterCond.States["s0"].Rules[0].Cond = lang.Cmp{Op: lang.OpEq, L: lang.DequeRead{Deque: "n"}, R: lang.Lit{Value: int64(3)}}
	sharing := map[string]*lang.Attack{
		"goto":     rule(lang.GotoState{State: "s1"}),
		"push":     rule(incr("n")),
		"store":    rule(lang.StoreMessage{Deque: "m"}),
		"send":     rule(lang.SendStored{Deque: "m"}),
		"discard":  rule(lang.DequeDiscard{Deque: "m"}),
		"modify":   rule(lang.ModifyField{Field: lang.PropFMPriority, Value: lang.DequeRead{Deque: "p"}}),
		"condread": counterCond,
	}
	private := map[string]*lang.Attack{
		"drop":   rule(lang.DropMessage{}),
		"modify": rule(lang.ModifyField{Field: lang.PropFMPriority, Value: lang.Lit{Value: int64(9)}}),
	}
	mk := func(a *lang.Attack) *Injector {
		am := model.NewAttackerModel()
		for _, conn := range sys.ControlPlane {
			am.Grant(conn, model.AllCapabilities)
		}
		inj, err := New(Config{
			System: sys, Attacker: am, Attack: a, Transport: netem.NewMemTransport(),
			Shards: 4, StochasticSeed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return inj
	}
	hashed := mk(trivialAttack())
	spread := map[int]bool{}
	for _, conn := range unwatched {
		spread[hashed.shardFor(conn).id] = true
	}
	if len(spread) < 2 {
		t.Fatalf("%d unwatched conns hash to %d loop(s)", len(unwatched), len(spread))
	}
	moved := 0
	for _, conn := range watched {
		if hashed.shardFor(conn).id != 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("every watched conn hashes to loop 0: pinning would go unseen")
	}
	for name, a := range sharing {
		inj := mk(a)
		for _, conn := range watched {
			if id := inj.shardFor(conn).id; id != 0 {
				t.Errorf("%s: watched %s on loop %d, want 0", name, conn, id)
			}
		}
		for _, conn := range unwatched {
			if got, want := inj.shardFor(conn).id, hashed.shardFor(conn).id; got != want {
				t.Errorf("%s: unwatched %s on loop %d, want hashed %d", name, conn, got, want)
			}
		}
	}
	for name, a := range private {
		inj := mk(a)
		for _, conn := range sys.ControlPlane {
			if got, want := inj.shardFor(conn).id, hashed.shardFor(conn).id; got != want {
				t.Errorf("%s: %s on loop %d, want hashed %d", name, conn, got, want)
			}
		}
	}
}
