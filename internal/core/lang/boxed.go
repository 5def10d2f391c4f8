package lang

import "attain/internal/openflow"

// Pre-boxed interface values for the property results the injector's hot
// path produces on every conditional evaluation. Converting a string or a
// large integer to the Value interface allocates; boxing the small, closed
// sets once at init keeps rule evaluation over forwarded traffic
// allocation-free. Arbitrary integers (xids, lengths, ports ≥ 256) still
// box per evaluation — only the enumerable sets are interned.
var (
	trueValue  Value = true
	falseValue Value = false

	emptyStringValue Value = ""
	minusOneValue    Value = int64(-1)

	unknownDirectionValue Value = Direction(0).String()

	directionValues = map[Direction]Value{
		SwitchToController: SwitchToController.String(),
		ControllerToSwitch: ControllerToSwitch.String(),
	}

	// enumNames boxes the names of every openflow.FieldEnum row's values
	// below 256. enumCodes inverts them for the one-byte rows whose 256
	// names are all distinct (msg.type), so that compiled conditionals
	// compare codes, not names.
	enumNames = make(map[*openflow.Field]*[256]Value)
	enumCodes = make(map[*openflow.Field]map[string]int64)

	typeField, _    = openflow.FieldNamed(PropType)
	commandField, _ = openflow.FieldNamed(PropFMCommand)
	reasonField, _  = openflow.FieldNamed(PropPIReason)
)

func init() {
	for i := range openflow.Fields {
		fd := &openflow.Fields[i]
		if fd.Kind != openflow.FieldEnum {
			continue
		}
		names := new([256]Value)
		codes := make(map[string]int64, len(names))
		for n := range names {
			names[n] = fd.Enum(uint64(n))
			codes[names[n].(string)] = int64(n)
		}
		enumNames[fd] = names
		if fd.Width == 1 && len(codes) == len(names) {
			enumCodes[fd] = codes
		}
	}
}

func boolValue(b bool) Value {
	if b {
		return trueValue
	}
	return falseValue
}

func directionValue(d Direction) Value {
	if v, ok := directionValues[d]; ok {
		return v
	}
	return unknownDirectionValue
}

// enumValue names value n of the FieldEnum row fd.
func enumValue(fd *openflow.Field, n uint64) Value {
	if n < 256 {
		return enumNames[fd][n]
	}
	return fd.Enum(n)
}

func typeValue(t openflow.Type) Value { return enumValue(typeField, uint64(t)) }

func commandValue(c openflow.FlowModCommand) Value { return enumValue(commandField, uint64(c)) }

func reasonValue(r openflow.PacketInReason) Value { return enumValue(reasonField, uint64(r)) }
