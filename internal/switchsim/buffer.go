package switchsim

import (
	"sync"

	"attain/internal/openflow"
)

// bufferedPacket is a packet parked in the switch awaiting a controller
// decision.
type bufferedPacket struct {
	inPort uint16
	frame  []byte
}

// bufferStore holds packets referenced by PACKET_IN buffer ids, evicting
// the oldest entry when full. The map is not presized: most switches park
// few packets, and cap bounds it either way.
type bufferStore struct {
	mu    sync.Mutex
	cap   int
	next  uint32
	m     map[uint32]bufferedPacket
	order []uint32
}

func newBufferStore(capacity int) *bufferStore {
	if capacity <= 0 {
		capacity = 256
	}
	return &bufferStore{cap: capacity, m: make(map[uint32]bufferedPacket)}
}

// put parks a frame and returns its buffer id.
func (b *bufferStore) put(inPort uint16, frame []byte) uint32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	for len(b.order) >= b.cap {
		oldest := b.order[0]
		b.order = b.order[1:]
		delete(b.m, oldest)
	}
	b.next++
	if b.next == openflow.NoBuffer {
		b.next = 1
	}
	id := b.next
	b.m[id] = bufferedPacket{inPort: inPort, frame: append([]byte(nil), frame...)}
	b.order = append(b.order, id)
	return id
}

// take removes and returns the packet for id.
func (b *bufferStore) take(id uint32) (bufferedPacket, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	pkt, ok := b.m[id]
	if !ok {
		return bufferedPacket{}, false
	}
	delete(b.m, id)
	for i, v := range b.order {
		if v == id {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
	return pkt, true
}

// len reports the number of parked packets.
func (b *bufferStore) len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.m)
}
