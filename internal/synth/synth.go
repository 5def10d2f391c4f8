package synth

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"attain/internal/core/compile"
	"attain/internal/core/lang"
	"attain/internal/core/model"
)

// Config parameterizes a Generator. Only Seed and Vocab are required; the
// Max knobs default to a shape that keeps generated programs small enough
// to read but deep enough to exercise every grammar production.
type Config struct {
	// Seed is the campaign-level base seed. Per-program seeds are derived
	// from it with ProgramSeed.
	Seed int64
	// Vocab is the name pool programs draw from.
	Vocab Vocabulary
	// MaxStates bounds the state count (minimum 2). Default 4.
	MaxStates int
	// MaxRules bounds rules per state. Default 2.
	MaxRules int
	// MaxActions bounds actions per rule. Default 3.
	MaxActions int
	// MaxDepth bounds expression nesting. Default 2.
	MaxDepth int
}

// Generator produces well-typed attack programs. It is safe for concurrent
// use: Program is a pure function of (Config.Seed, index).
type Generator struct {
	cfg      Config
	attacker *model.AttackerModel
	actions  []actionChoice
	weight   int
	intProps []string
	strProps []string
	metaProp []string
	// setProps are the properties MODIFYFIELD can set.
	setProps []string
}

// Program is one generated attack: the structural form, its canonical DSL
// text, and the seed it was derived from.
type Program struct {
	Index  int
	Seed   int64
	Attack *lang.Attack
	// DSL is the canonical text emitted by compile.FormatAttack. Parsing
	// it and re-formatting reproduces it byte-identically (the synth
	// property tests hold this for every program).
	DSL string
}

// SHA256 returns the hex digest of the program's DSL text — the identity
// used by determinism checks across runs and grid workers.
func (p *Program) SHA256() string {
	sum := sha256.Sum256([]byte(p.DSL))
	return hex.EncodeToString(sum[:])
}

// ProgramSeed derives the per-program seed for index from a base seed.
// SplitMix64-style finalization: one multiplicative step then avalanche,
// so neighbouring indices get uncorrelated streams. Exported so grid
// shards and the campaign layer can label scenarios with the exact seed
// that regenerates the program.
func ProgramSeed(base int64, index int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(index+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	s := int64(z)
	if s == 0 {
		s = 1
	}
	return s
}

// actionChoice is one entry in the weighted action table.
type actionChoice struct {
	proto  lang.Action
	weight int
}

// New builds a Generator. It errors if the vocabulary is unusable or if
// the language grew an action type this package does not know how to
// generate (vocabulary drift must be loud, not silently skipped).
func New(cfg Config) (*Generator, error) {
	if cfg.Vocab.System == nil {
		return nil, fmt.Errorf("synth: vocabulary has no system model")
	}
	if len(cfg.Vocab.Conns) == 0 {
		return nil, fmt.Errorf("synth: vocabulary has no control-plane connections")
	}
	if len(cfg.Vocab.StringPool) == 0 {
		return nil, fmt.Errorf("synth: vocabulary has an empty string pool")
	}
	if len(cfg.Vocab.Deques) == 0 {
		return nil, fmt.Errorf("synth: vocabulary has no deque names")
	}
	if cfg.MaxStates < 2 {
		cfg.MaxStates = 4
	}
	if cfg.MaxRules < 1 {
		cfg.MaxRules = 2
	}
	if cfg.MaxActions < 1 {
		cfg.MaxActions = 3
	}
	if cfg.MaxDepth < 1 {
		cfg.MaxDepth = 2
	}
	g := &Generator{cfg: cfg, attacker: cfg.Vocab.Attacker()}
	for _, name := range lang.Properties() {
		if lang.PropertyKindOf(name) == lang.PropertyString {
			g.strProps = append(g.strProps, name)
		} else {
			g.intProps = append(g.intProps, name)
		}
		if lang.MetadataProperty(name) {
			g.metaProp = append(g.metaProp, name)
		}
		if lang.SettableProperty(name) {
			g.setProps = append(g.setProps, name)
		}
	}
	// The action table is derived from the language's own prototype list.
	// Weights bias toward observation/injection actions and away from
	// destructive ones, so a typical program perturbs the control channel
	// without flatlining it; every type keeps nonzero weight so the full
	// vocabulary is reachable.
	for _, proto := range lang.ActionPrototypes() {
		w := 0
		switch proto.(type) {
		case lang.PassMessage:
			w = 3
		case lang.InjectMessage:
			if len(cfg.Vocab.Templates) > 0 {
				w = 3
			}
		case lang.StoreMessage, lang.SendStored, lang.DequePush, lang.GotoState, lang.DuplicateMessage:
			w = 2
		case lang.DropMessage, lang.DelayMessage, lang.FuzzMessage, lang.ModifyField,
			lang.ModifyMetadata, lang.DequeDiscard, lang.Sleep:
			w = 1
		case lang.SysCmd:
			if len(cfg.Vocab.Hosts) > 0 {
				w = 1
			}
		default:
			return nil, fmt.Errorf("synth: no generator for action type %T (vocabulary drift — teach internal/synth about it)", proto)
		}
		if w > 0 {
			g.actions = append(g.actions, actionChoice{proto: proto, weight: w})
			g.weight += w
		}
	}
	return g, nil
}

// Seed returns the generator's base seed.
func (g *Generator) Seed() int64 { return g.cfg.Seed }

// Attacker returns the full attacker model programs validate against.
func (g *Generator) Attacker() *model.AttackerModel { return g.attacker }

// System returns the system model programs are generated against.
func (g *Generator) System() *model.System { return g.cfg.Vocab.System }

// Program generates program index. The result is deterministic: the same
// (Config.Seed, index) pair yields byte-identical DSL on every call, in
// every process. Every program is self-validated against the vocabulary's
// system under the full attacker model before being returned.
func (g *Generator) Program(index int) (*Program, error) {
	if index < 0 {
		return nil, fmt.Errorf("synth: negative program index %d", index)
	}
	seed := ProgramSeed(g.cfg.Seed, index)
	b := &builder{gen: g, rng: rand.New(rand.NewSource(seed))}
	attack := b.attack(fmt.Sprintf("synth-%06d", index))
	if b.err != nil {
		return nil, fmt.Errorf("synth: program %d: %w", index, b.err)
	}
	if err := attack.Validate(g.cfg.Vocab.System, g.attacker); err != nil {
		return nil, fmt.Errorf("synth: program %d failed self-validation (generator bug): %w", index, err)
	}
	return &Program{Index: index, Seed: seed, Attack: attack, DSL: compile.FormatAttack(attack)}, nil
}

// Programs generates programs [0, count).
func (g *Generator) Programs(count int) ([]*Program, error) {
	out := make([]*Program, 0, count)
	for i := 0; i < count; i++ {
		p, err := g.Program(i)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// builder holds the per-program generation state. All randomness flows
// through rng; the vocabulary is iterated in deterministic order only.
type builder struct {
	gen    *Generator
	rng    *rand.Rand
	states []string
	phi    int
	err    error
}

// Durations are drawn from fixed menus whose String() forms are dot-free
// (the lexer reads durations as digits+unit; "1.5s" would not re-lex), and
// kept short so delays cannot stall a campaign executor for long.
var (
	delayMenu = []time.Duration{5 * time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond}
	sleepMenu = []time.Duration{1 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond}
	probMenu  = []float64{0.25, 0.5, 0.75}
	intMenu   = []int64{-1, 0, 1, 2, 3, 8, 64, 100, 128, 1024}
)

func (b *builder) attack(name string) *lang.Attack {
	n := 2 + b.rng.Intn(b.gen.cfg.MaxStates-1)
	b.states = make([]string, n)
	for i := range b.states {
		b.states[i] = fmt.Sprintf("sigma%d", i+1)
	}
	// Most programs get an absorbing end state (rule-less), exercising the
	// formatter/parser on empty states and giving goto a terminal target.
	endState := b.rng.Intn(10) < 7
	a := lang.NewAttack(name, b.states[0])
	for i, sname := range b.states {
		st := &lang.State{Name: sname}
		if !(endState && i == n-1) {
			rules := 1 + b.rng.Intn(b.gen.cfg.MaxRules)
			for r := 0; r < rules; r++ {
				st.Rules = append(st.Rules, b.rule())
			}
		}
		a.AddState(st)
	}
	return a
}

func (b *builder) rule() *lang.Rule {
	b.phi++
	rule := &lang.Rule{Name: fmt.Sprintf("phi%d", b.phi)}
	conns := b.gen.cfg.Vocab.Conns
	k := 1 + b.rng.Intn(min(3, len(conns)))
	for _, idx := range b.rng.Perm(len(conns))[:k] {
		rule.Conns = append(rule.Conns, conns[idx])
	}
	rule.Cond = b.boolExpr(b.gen.cfg.MaxDepth)
	// ~15% of rules only observe (no action list — FormatAttack omits the
	// do line entirely, which the round-trip tests must survive).
	if b.rng.Intn(100) >= 15 {
		count := 1 + b.rng.Intn(b.gen.cfg.MaxActions)
		for i := 0; i < count; i++ {
			rule.Actions = append(rule.Actions, b.action())
		}
	}
	if b.rng.Intn(4) == 0 {
		rule.Prob = probMenu[b.rng.Intn(len(probMenu))]
	}
	// Capabilities: usually the exact requirement γ (exercising the
	// comma-joined list form), sometimes the notls/tls shorthand sets.
	need := rule.RequiredCaps()
	switch b.rng.Intn(6) {
	case 0:
		rule.Caps = model.AllCapabilities
	case 1:
		if model.TLSCapabilities.HasAll(need) {
			rule.Caps = model.TLSCapabilities
		} else {
			rule.Caps = need
		}
	default:
		rule.Caps = need
	}
	return rule
}

// ---- Expressions ----

// boolExpr generates a boolean-valued expression with nesting bounded by
// depth. Conditions never contain side effects (DequeTake appears only in
// action value positions), matching the validator's purity check.
func (b *builder) boolExpr(depth int) lang.Expr {
	if depth <= 0 {
		return b.boolLeaf(0)
	}
	switch b.rng.Intn(10) {
	case 0:
		return lang.And{Exprs: b.boolList(depth - 1)}
	case 1:
		return lang.Or{Exprs: b.boolList(depth - 1)}
	case 2:
		return lang.Not{Expr: b.boolExpr(depth - 1)}
	default:
		return b.boolLeaf(depth - 1)
	}
}

// boolList yields 2-3 sub-expressions: And/Or with a single element would
// format as a bare parenthesized expression and re-parse as its child, so
// compounds always carry at least two.
func (b *builder) boolList(depth int) []lang.Expr {
	n := 2 + b.rng.Intn(2)
	exprs := make([]lang.Expr, n)
	for i := range exprs {
		exprs[i] = b.boolExpr(depth)
	}
	return exprs
}

func (b *builder) boolLeaf(depth int) lang.Expr {
	switch b.rng.Intn(10) {
	case 0, 1, 2, 3:
		// The dominant leaf: a message-type guard, so most rules fire on
		// specific control traffic instead of everything.
		return lang.Cmp{Op: lang.OpEq, L: lang.Prop{Name: lang.PropType}, R: lang.Lit{Value: b.poolString()}}
	case 4:
		op := lang.OpEq
		if b.rng.Intn(2) == 0 {
			op = lang.OpNe
		}
		return lang.Cmp{Op: op, L: b.strOperand(), R: b.strOperand()}
	case 5, 6:
		ops := []lang.CmpOp{lang.OpEq, lang.OpNe, lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe}
		return lang.Cmp{Op: ops[b.rng.Intn(len(ops))], L: b.intOperand(depth, false), R: b.intOperand(depth, false)}
	case 7:
		set := make([]lang.Expr, 2+b.rng.Intn(2))
		for i := range set {
			set[i] = lang.Lit{Value: b.poolString()}
		}
		return lang.In{L: b.strOperand(), Set: set}
	case 8:
		set := make([]lang.Expr, 2+b.rng.Intn(2))
		for i := range set {
			set[i] = lang.Lit{Value: b.intLit()}
		}
		return lang.In{L: b.intOperand(depth, false), Set: set}
	default:
		return lang.Not{Expr: b.boolLeaf(depth)}
	}
}

// intOperand generates an integer-valued operand. allowTake permits the
// side-effecting deque takes (shift/pop), legal only in action values.
func (b *builder) intOperand(depth int, allowTake bool) lang.Expr {
	r := b.rng.Intn(8)
	switch {
	case r <= 2:
		return lang.Lit{Value: b.intLit()}
	case r <= 4:
		return lang.Prop{Name: b.gen.intProps[b.rng.Intn(len(b.gen.intProps))]}
	case r == 5:
		if allowTake && b.rng.Intn(2) == 0 {
			return lang.DequeTake{Deque: b.deque(), End: b.rng.Intn(2) == 0}
		}
		return lang.DequeRead{Deque: b.deque(), End: b.rng.Intn(2) == 0}
	default:
		if depth > 0 {
			op := lang.OpAdd
			if b.rng.Intn(2) == 0 {
				op = lang.OpSub
			}
			return lang.Arith{Op: op, L: b.intOperand(depth-1, allowTake), R: b.intOperand(depth-1, allowTake)}
		}
		return lang.Lit{Value: b.intLit()}
	}
}

func (b *builder) strOperand() lang.Expr {
	if b.rng.Intn(3) == 0 {
		return lang.Prop{Name: b.gen.strProps[b.rng.Intn(len(b.gen.strProps))]}
	}
	return lang.Lit{Value: b.poolString()}
}

func (b *builder) intLit() int64 { return intMenu[b.rng.Intn(len(intMenu))] }

func (b *builder) poolString() string {
	pool := b.gen.cfg.Vocab.StringPool
	return pool[b.rng.Intn(len(pool))]
}

func (b *builder) deque() string {
	d := b.gen.cfg.Vocab.Deques
	return d[b.rng.Intn(len(d))]
}

// ---- Actions ----

func (b *builder) action() lang.Action {
	roll := b.rng.Intn(b.gen.weight)
	var proto lang.Action
	for _, c := range b.gen.actions {
		if roll < c.weight {
			proto = c.proto
			break
		}
		roll -= c.weight
	}
	switch proto.(type) {
	case lang.DropMessage:
		return lang.DropMessage{}
	case lang.PassMessage:
		return lang.PassMessage{}
	case lang.DelayMessage:
		return lang.DelayMessage{D: delayMenu[b.rng.Intn(len(delayMenu))]}
	case lang.DuplicateMessage:
		return lang.DuplicateMessage{}
	case lang.FuzzMessage:
		// Seed 0 formats as bare "fuzz"; explicit seeds stay positive
		// (a negative literal after "fuzz" does not re-lex).
		if b.rng.Intn(2) == 0 {
			return lang.FuzzMessage{}
		}
		return lang.FuzzMessage{Seed: 1 + b.rng.Int63n(1<<30)}
	case lang.ModifyField:
		name := b.gen.setProps[b.rng.Intn(len(b.gen.setProps))]
		return lang.ModifyField{Field: name, Value: b.intOperand(1, true)}
	case lang.ModifyMetadata:
		name := b.gen.metaProp[b.rng.Intn(len(b.gen.metaProp))]
		if lang.PropertyKindOf(name) == lang.PropertyString {
			return lang.ModifyMetadata{Field: name, Value: b.strOperand()}
		}
		return lang.ModifyMetadata{Field: name, Value: b.intOperand(1, true)}
	case lang.InjectMessage:
		dir := lang.ControllerToSwitch
		if b.rng.Intn(2) == 0 {
			dir = lang.SwitchToController
		}
		tmpl := b.gen.cfg.Vocab.Templates[b.rng.Intn(len(b.gen.cfg.Vocab.Templates))]
		return lang.InjectMessage{Template: tmpl, Direction: dir}
	case lang.SendStored:
		return lang.SendStored{Deque: b.deque(), FromEnd: b.rng.Intn(2) == 0}
	case lang.StoreMessage:
		return lang.StoreMessage{Deque: b.deque(), Front: b.rng.Intn(2) == 0}
	case lang.DequePush:
		d := b.deque()
		// The counter idiom from the paper's replay examples: push
		// take(d)+1 so the deque holds a running count.
		if b.rng.Intn(3) == 0 {
			return lang.DequePush{Deque: d, Value: lang.Arith{
				Op: lang.OpAdd, L: lang.DequeTake{Deque: d}, R: lang.Lit{Value: int64(1)},
			}}
		}
		return lang.DequePush{Deque: d, Front: b.rng.Intn(2) == 0, Value: b.intOperand(1, true)}
	case lang.DequeDiscard:
		return lang.DequeDiscard{Deque: b.deque(), FromEnd: b.rng.Intn(2) == 0}
	case lang.GotoState:
		return lang.GotoState{State: b.states[b.rng.Intn(len(b.states))]}
	case lang.Sleep:
		return lang.Sleep{D: sleepMenu[b.rng.Intn(len(sleepMenu))]}
	case lang.SysCmd:
		host := b.gen.cfg.Vocab.Hosts[b.rng.Intn(len(b.gen.cfg.Vocab.Hosts))]
		return lang.SysCmd{Host: model.NodeID(host), Cmd: "probe latency"}
	default:
		if b.err == nil {
			b.err = fmt.Errorf("synth: action table produced unknown prototype %T", proto)
		}
		return lang.PassMessage{}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
