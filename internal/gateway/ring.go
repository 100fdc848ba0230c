package gateway

import (
	"encoding/json"

	"tota/internal/tuple"
)

// ringEntry is one gateway-observed engine event, retained for replay:
// the sequence it was assigned, the decoded tuple for template
// matching, and the pre-encoded JSON so fan-out to thousands of
// subscriptions marshals each tuple exactly once.
type ringEntry struct {
	seq   uint64
	typ   string
	peer  string
	tup   tuple.Tuple
	tJSON json.RawMessage
}

// eventRing is the bounded per-gateway replay buffer — the
// subscribe/replay contract: a client that reconnects with the last
// sequence it saw gets every newer retained event (a replay hit), or
// an explicit miss when the ring has already evicted part of the range
// so it knows its state is unreliable instead of silently gapped.
// Guarded by Gateway.mu.
type eventRing struct {
	buf  []ringEntry
	next int // insertion index
	full bool
}

func newEventRing(size int) *eventRing {
	return &eventRing{buf: make([]ringEntry, size)}
}

func (r *eventRing) append(e ringEntry) {
	r.buf[r.next] = e
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// since returns the retained entries with seq > from in sequence order,
// and whether the range is complete (every event after from is still
// retained). A false return means eviction already ate part of the
// range: the caller must report a replay miss. The ring only empties
// by never being appended to, so an empty ring is complete.
func (r *eventRing) since(from uint64) ([]ringEntry, bool) {
	start, count := 0, r.next
	if r.full {
		start, count = r.next, len(r.buf)
	}
	var out []ringEntry
	for i := 0; i < count; i++ {
		if e := r.buf[(start+i)%len(r.buf)]; e.seq > from {
			out = append(out, e)
		}
	}
	return out, count == 0 || from+1 >= r.buf[start].seq
}
