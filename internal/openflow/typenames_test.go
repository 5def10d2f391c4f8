package openflow

// typeNames is the type table as tests range over it: each named type
// keyed by its Type.
var typeNames = func() map[Type]string {
	m := make(map[Type]string)
	for t, name := range typeName {
		if name != "" {
			m[Type(t)] = name
		}
	}
	return m
}()
