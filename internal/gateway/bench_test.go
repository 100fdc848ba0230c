package gateway

import (
	"bytes"
	"fmt"
	"testing"

	"tota/internal/core"
	"tota/internal/pattern"
	"tota/internal/tuple"
)

// benchSubCounts are the subscription counts both gateway layer
// benchmarks run at: one subscription, and the 2,000 single-name
// subscriptions of the end-to-end gw_fanout workload. Exactly one
// subscription matches in each case, so the difference between the two
// is the cost of the non-matching ones.
var benchSubCounts = []int{1, 2000}

// BenchmarkGatewayFanout measures the server side of one engine event:
// sequence it, retain it in the ring, match it against every
// subscription on a connection and queue one frame for the match.
func BenchmarkGatewayFanout(b *testing.B) {
	for _, n := range benchSubCounts {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			gw := &Gateway{
				cfg:   Config{QueueSize: 1},
				ring:  newEventRing(DefaultRingSize),
				conns: make(map[*conn]struct{}),
			}
			c := &conn{
				gw:     gw,
				out:    make(chan []byte, 1),
				subs:   make(map[uint64]*serverSub),
				closec: make(chan struct{}),
			}
			gw.conns[c] = struct{}{}
			for i := 1; i <= n; i++ {
				name := fmt.Sprintf("miss-%d", i)
				if i == n {
					name = "hit"
				}
				c.subs[uint64(i)] = &serverSub{id: uint64(i), tpl: pattern.ByName(pattern.KindFlood, name)}
			}
			ev := core.Event{Type: core.TupleArrived, Tuple: pattern.NewFlood("hit", tuple.I("k", 7))}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gw.onEvent(ev)
				<-c.out
			}
		})
	}
}

// BenchmarkClientDecode measures the client side of one event frame:
// decode the frame, route it to its subscription, run the sequence and
// drop checks, decode the tuple and hand the event to the consumer.
// The frame is addressed to the last of the subscriptions.
func BenchmarkClientDecode(b *testing.B) {
	for _, n := range benchSubCounts {
		b.Run(fmt.Sprintf("subs=%d", n), func(b *testing.B) {
			c := newLoopClient()
			var target *Subscription
			for i := 1; i <= n; i++ {
				target = c.attached(uint64(i), 1)
			}
			tJSON, err := tuple.MarshalTupleJSON(pattern.NewFlood("hit", tuple.I("k", 7)))
			if err != nil {
				b.Fatal(err)
			}
			frame, err := EncodeFrame(Frame{Event: &Event{
				Type: core.TupleArrived.String(), Sub: uint64(n), GSeq: 1, DSeq: 1, Tuple: tJSON,
			}})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var fr Frame
				if err := ReadFrame(bytes.NewReader(frame), &fr); err != nil {
					b.Fatal(err)
				}
				fr.Event.GSeq, fr.Event.DSeq = uint64(i+1), uint64(i+1)
				c.onEvent(fr.Event)
				if ev := <-target.Events; ev.Tuple == nil {
					b.Fatal("event tuple did not decode")
				}
			}
		})
	}
}
