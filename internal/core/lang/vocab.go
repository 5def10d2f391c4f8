package lang

import (
	"sort"

	"attain/internal/openflow"
)

// Vocabulary introspection: the generative layers (internal/synth, the
// fuzz corpus seeders) draw the language's property and action vocabulary
// from these accessors instead of maintaining parallel lists, so the
// generators cannot drift from what the evaluator and validator actually
// understand.

// PropertyKind classifies the value type a message property evaluates to.
type PropertyKind int

const (
	// PropertyInt marks properties that evaluate to int64.
	PropertyInt PropertyKind = iota
	// PropertyString marks properties that evaluate to string.
	PropertyString
)

// Properties returns every known message property name, sorted.
func Properties() []string {
	names := make([]string, 0, len(knownProps))
	for name := range knownProps {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// MetadataProperty reports whether name is a metadata property — readable
// with READMESSAGEMETADATA alone, no payload access needed.
func MetadataProperty(name string) bool { return metadataProps[name] }

// PropertyKindOf returns the value type property name evaluates to: a
// payload property's comes from its openflow.Fields row, through the same
// inert zero value (payloadZero) the evaluator reads, so the
// classification cannot drift from Eval's behaviour.
func PropertyKindOf(name string) PropertyKind {
	switch name {
	case PropSource, PropDestination, PropDirection:
		return PropertyString
	}
	if _, ok := payloadZero(name).(string); ok {
		return PropertyString
	}
	return PropertyInt
}

// SettableProperty reports whether MODIFYFIELD may set property name: its
// openflow.Fields row is patched in place.
func SettableProperty(name string) bool {
	fd, ok := openflow.FieldNamed(name)
	return ok && fd.Settable
}

// ActionPrototypes returns one zero value of every action type in the
// vocabulary, mirroring the compile-time interface checks in action.go.
// Generators switch over these to guarantee full-vocabulary coverage: a
// new action type added here without generator support becomes a loud
// test failure instead of a silent coverage gap.
func ActionPrototypes() []Action {
	return []Action{
		DropMessage{},
		PassMessage{},
		DelayMessage{},
		DuplicateMessage{},
		FuzzMessage{},
		ModifyField{},
		ModifyMetadata{},
		InjectMessage{},
		SendStored{},
		StoreMessage{},
		DequePush{},
		DequeDiscard{},
		GotoState{},
		Sleep{},
		SysCmd{},
	}
}

// ExprPrototypes returns one zero value of every expression type, for the
// same coverage-accounting purpose as ActionPrototypes.
func ExprPrototypes() []Expr {
	return []Expr{
		And{}, Or{}, Not{}, Cmp{}, In{}, Arith{},
		Lit{}, Prop{}, DequeRead{}, DequeTake{},
	}
}
