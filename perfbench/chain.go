package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tota/internal/core"
	"tota/internal/gateway"
	"tota/internal/pattern"
	"tota/internal/transport"
	"tota/internal/transport/udp"
	"tota/internal/tuple"
)

// The gateway workloads run five tota-node equivalents in this process:
// udp.New + core.New + gateway.Serve on A and E, and a 1 s
// Refresh/SweepExpired ticker per node. Their traffic crosses the host
// loopback. Client 1 injects on A's gateway; client 2 subscribes and
// reads on E's gateway.
const (
	chainLen = 5
	// floodLease is the Expires of every injected flood. A node ages its
	// tuples only when it sweeps, once per refreshPeriod, so a lease of
	// exactly two periods would expire a flood two or three sweeps after
	// it was stored depending on microseconds of ticker jitter, and one
	// sweep would remove no floods and the next two epochs' worth. Two
	// and a half periods expires every flood on the third sweep, so each
	// sweep removes one epoch's floods.
	floodLease    = 2.5
	refreshPeriod = time.Second
	// eventDeadline is how long after its due time an event may arrive:
	// longer than the lease plus two refresh epochs, so only a flood
	// that no epoch could repair counts as lost.
	eventDeadline = 5 * time.Second
	burstWait     = 50 * time.Millisecond
	setupRounds   = 3                      // chain builds per run; setup_s is their median
	fieldBatches  = 20                     // gradient batches settled per run (plus one warm-up)
	fieldBatch    = 50                     // gradients injected together in one batch
	flapsPerField = 4                      // D–E link flaps repaired per batch
	defaultSubs   = 2000                   // client 2's single-name subscriptions
	traceStretch  = 500 * time.Millisecond // traced/untraced alternation
)

// The gateway workload's load: open-loop injects and Reads for most of
// the run, then a closed-loop ping-pong burst.
const (
	injectRate = 100.0 // open-loop injects per second
	readRate   = 200.0 // open-loop Read RPCs per second on E
	burstShare = 0.3   // share of --seconds planned for the burst
	// burstRate sizes the burst: it injects burstRate*burstShare*seconds
	// floods, about burstShare of the run at the rate the chain sustains
	// today. A fixed count keeps the attempted operations the same from
	// run to run.
	burstRate = 350.0
)

// ledger tracks every injected flood by index k-base: when it was due,
// the timestamps along its path (tracing only) and when client 2 saw it.
// All times are nanoseconds since the run began.
type ledger struct {
	base  int64
	names []string
	due   []atomic.Int64
	got   []atomic.Int64
	// failedRPC marks floods whose inject RPC failed (counted once, not
	// again as lost).
	failedRPC []atomic.Bool
	// Path timestamps, recorded only by a traced run.
	traced                       []atomic.Bool
	injStart, injEnd, tapA, tapE []atomic.Int64

	bad, dups, resyncs atomic.Int64
}

func newLedger(n int, base int64, names []string) *ledger {
	return &ledger{
		base: base, names: names,
		due: make([]atomic.Int64, n), got: make([]atomic.Int64, n),
		failedRPC: make([]atomic.Bool, n),
		traced:    make([]atomic.Bool, n),
		injStart:  make([]atomic.Int64, n), injEnd: make([]atomic.Int64, n),
		tapA: make([]atomic.Int64, n), tapE: make([]atomic.Int64, n),
	}
}

// index maps a flood's k to its ledger slot, or -1 if no such flood
// was injected.
func (l *ledger) index(k int64) int {
	i := k - l.base
	if i < 0 || i >= int64(len(l.due)) || l.due[i].Load() == 0 {
		return -1
	}
	return int(i)
}

// node is one chain member.
type node struct {
	udp  *udp.Transport
	core *core.Node
	h    transport.Handler // what the transport delivers to: core, or its traced wrapper
}

// chain is one built A–B–C–D–E deployment with its two clients.
type chain struct {
	opts  options
	subs  int // client 2's single-name subscriptions on E
	tr    *tracer
	start time.Time // run clock base
	nodes [chainLen]node
	gwA   *gateway.Gateway
	gwE   *gateway.Gateway
	inj   *gateway.Client // client 1, on A
	obs   *gateway.Client // client 2, on E
	sub   []*gateway.Subscription
	led   *ledger

	pool    []string // flood names, one subscription each
	pinName string
	pinK    int64
	// awaited is the burst flood the ping-pong waits for (-1 none); its
	// event wakes the burst loop through wake.
	awaited atomic.Int64
	wake    chan struct{}

	// gradients carries E's arrivals of settle/repair gradients to the
	// field phase (the application observer on E).
	gradients chan gradArrival

	tickStop chan struct{}
	tickWG   sync.WaitGroup
	recvWG   sync.WaitGroup

	// openLoop is set while the open loop runs: epochs are sampled only
	// then, so the burst's store growth (which follows how fast the host
	// is) does not feed the epoch metrics.
	openLoop atomic.Bool
	mu       sync.Mutex
	epochs   []float64 // Refresh+SweepExpired durations, ms
}

type gradArrival struct {
	name string
	val  float64
	at   time.Time
}

func (c *chain) now() int64 { return int64(time.Since(c.start)) }

func nodeName(i int) tuple.NodeID { return tuple.NodeID(string(rune('A' + i))) }

// build brings up the chain, both gateways, both clients and client 2's
// subscriptions, and waits until the pinned tuple is readable on E.
func (c *chain) build() error {
	for i := range c.nodes {
		t, err := udp.New(udp.Config{NodeID: nodeName(i), ListenAddr: "127.0.0.1:0"})
		if err != nil {
			return fmt.Errorf("udp node %d: %w", i, err)
		}
		c.nodes[i].udp = t
	}
	for i := range c.nodes {
		for _, j := range []int{i - 1, i + 1} {
			if j >= 0 && j < chainLen {
				if err := c.nodes[i].udp.AddPeer(c.nodes[j].udp.Addr()); err != nil {
					return err
				}
			}
		}
		var s transport.Sender = c.nodes[i].udp
		if c.tr != nil {
			s = sender{t: c.tr, s: c.nodes[i].udp}
		}
		n := core.New(s)
		c.nodes[i].core = n
		var h transport.Handler = n
		if c.tr != nil {
			h = handler{t: c.tr, h: n}
		}
		c.nodes[i].h = h
		c.nodes[i].udp.SetHandler(h)
	}
	if c.tr != nil {
		// Taps go on before the gateway's own subscription so they fire
		// first in the engine's dispatch order.
		c.tap(c.nodes[0].core, func(i int) *atomic.Int64 { return &c.led.tapA[i] })
		c.tap(c.nodes[chainLen-1].core, func(i int) *atomic.Int64 { return &c.led.tapE[i] })
	}
	c.nodes[chainLen-1].core.Subscribe(tuple.Match(pattern.KindGradient), func(ev core.Event) {
		m, ok := ev.Tuple.(tuple.Maintained)
		if ev.Type != core.TupleArrived || !ok {
			return
		}
		select {
		case c.gradients <- gradArrival{name: ev.Tuple.Content().GetString("name"), val: m.Value(), at: time.Now()}:
		default:
		}
	})
	for i := range c.nodes {
		c.nodes[i].udp.Start()
	}
	var err error
	if c.gwA, err = gateway.Serve(c.nodes[0].core, "127.0.0.1:0", gateway.Config{}); err != nil {
		return err
	}
	if c.gwE, err = gateway.Serve(c.nodes[chainLen-1].core, "127.0.0.1:0", gateway.Config{}); err != nil {
		return err
	}
	if err := c.waitNeighbors(); err != nil {
		return err
	}
	c.inj = gateway.Dial(c.gwA.Addr(), gateway.ClientConfig{})
	// Each name gets 1/subs of the events; a 64-deep buffer absorbs a
	// scheduling hiccup without 2,000 default-depth (1,024) buffers.
	c.obs = gateway.Dial(c.gwE.Addr(), gateway.ClientConfig{EventBuffer: 64})
	for i := 0; i < c.subs; i++ {
		if err := c.subscribe(pattern.ByName(pattern.KindFlood, c.pool[i])); err != nil {
			return err
		}
	}
	if _, err := c.inj.Inject(pattern.NewFlood(c.pinName, tuple.I("k", c.pinK))); err != nil {
		return fmt.Errorf("inject pinned tuple: %w", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		n, ok, err := c.readPinned()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if n > 0 {
			return fmt.Errorf("read on E returned %d tuples, not the pinned one", n)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pinned tuple never reached E")
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *chain) tap(n *core.Node, slot func(i int) *atomic.Int64) {
	n.Subscribe(tuple.Match(pattern.KindFlood), func(ev core.Event) {
		if ev.Type != core.TupleArrived {
			return
		}
		if i := c.led.index(ev.Tuple.Content().GetInt("k")); i >= 0 {
			slot(i).CompareAndSwap(0, c.now())
		}
	})
}

func (c *chain) waitNeighbors() error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for i := range c.nodes {
			want := 2
			if i == 0 || i == chainLen-1 {
				want = 1
			}
			if len(c.nodes[i].core.Neighbors()) != want {
				ok = false
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("chain neighbors never came up")
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *chain) subscribe(tpl tuple.Template) error {
	s, err := c.obs.Subscribe(tpl)
	if err != nil {
		return fmt.Errorf("subscribe: %w", err)
	}
	c.sub = append(c.sub, s)
	c.recvWG.Add(1)
	go func() {
		defer c.recvWG.Done()
		for ev := range s.Events {
			c.onEvent(ev)
		}
	}()
	return nil
}

// onEvent checks one delivery on client 2: it must carry the k and the
// name of a flood that was injected; the first arrival of each k counts.
func (c *chain) onEvent(ev gateway.SubEvent) {
	if ev.Resync {
		c.led.resyncs.Add(1)
		return
	}
	if ev.Tuple == nil {
		c.led.bad.Add(1)
		return
	}
	cnt := ev.Tuple.Content()
	k := cnt.GetInt("k")
	if k == c.pinK && cnt.GetString("name") == c.pinName {
		return
	}
	i := c.led.index(k)
	if i < 0 || cnt.GetString("name") != c.led.names[i] {
		c.led.bad.Add(1)
		return
	}
	if ev.Type != core.TupleArrived.String() {
		return
	}
	if c.opts.dropEvent != nil && c.opts.dropEvent(k) {
		return
	}
	if !c.led.got[i].CompareAndSwap(0, c.now()) {
		c.led.dups.Add(1)
		return
	}
	if c.awaited.Load() == int64(i) {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// readPinned issues one Read on E for the pinned tuple's name. It
// returns how many tuples came back and whether they are exactly the
// pinned tuple; err is a failed RPC.
func (c *chain) readPinned() (n int, ok bool, err error) {
	ts, err := c.obs.Read(pattern.ByName(pattern.KindFlood, c.pinName))
	if err != nil {
		return 0, false, err
	}
	return len(ts), len(ts) == 1 && ts[0].Content().GetInt("k") == c.pinK, nil
}

func (c *chain) close() {
	c.stopTickers()
	for _, cl := range []*gateway.Client{c.inj, c.obs} {
		if cl != nil {
			_ = cl.Close()
		}
	}
	c.recvWG.Wait()
	for _, g := range []*gateway.Gateway{c.gwA, c.gwE} {
		if g != nil {
			_ = g.Close()
		}
	}
	for i := range c.nodes {
		if c.nodes[i].udp != nil {
			_ = c.nodes[i].udp.Close()
		}
	}
}

// startTickers runs each node's refresh epoch once per second, the
// tota-node ticker, staggered across the period as independent
// processes would be.
func (c *chain) startTickers() {
	c.tickStop = make(chan struct{})
	for i := range c.nodes {
		n := c.nodes[i].core
		offset := refreshPeriod * time.Duration(i) / chainLen
		c.tickWG.Add(1)
		go func() {
			defer c.tickWG.Done()
			select {
			case <-time.After(offset):
			case <-c.tickStop:
				return
			}
			tk := time.NewTicker(refreshPeriod)
			defer tk.Stop()
			for {
				select {
				case <-c.tickStop:
					return
				case <-tk.C:
				}
				s := time.Now()
				epoch := func() {
					n.Refresh()
					n.SweepExpired(time.Since(c.start).Seconds())
				}
				if c.tr != nil {
					c.tr.timed(&c.tr.refresh, "core.refresh", -1, epoch)
				} else {
					epoch()
				}
				if c.openLoop.Load() {
					c.mu.Lock()
					c.epochs = append(c.epochs, ms(time.Since(s).Seconds()))
					c.mu.Unlock()
				}
			}
		}()
	}
}

// stopTickers stops the refresh tickers and waits for them to exit.
func (c *chain) stopTickers() {
	if c.tickStop != nil {
		close(c.tickStop)
		c.tickWG.Wait()
		c.tickStop = nil
	}
}

// engineStats sums the core counters of the chain.
func (c *chain) engineStats() core.Stats {
	var s core.Stats
	for i := range c.nodes {
		s = s.Add(c.nodes[i].core.Stats())
	}
	return s
}

// runFanout runs the gw_fanout workload: client 2 subscribes to each
// flood name separately, so each inject matches exactly one of its
// subscriptions.
func runFanout(opts options) (*result, error) {
	subs := opts.subs
	if subs == 0 {
		subs = defaultSubs
	}
	res := newResult()
	rng := rand.New(rand.NewSource(opts.seed))
	openSec := opts.seconds * (1 - burstShare)
	openN := int(injectRate * openSec)
	capN := openN + int(burstRate*opts.seconds*burstShare)
	names := make([]string, subs)
	seen := map[string]bool{}
	for i := range names {
		for names[i] == "" || seen[names[i]] {
			names[i] = fmt.Sprintf("f%05x", rng.Intn(1<<20))
		}
		seen[names[i]] = true
	}
	// Every name is used once per pass, in seeded order.
	order := make([]string, capN)
	for i := 0; i < capN; i += subs {
		perm := rng.Perm(subs)
		for j := 0; j < subs && i+j < capN; j++ {
			order[i+j] = names[perm[j]]
		}
	}
	led := newLedger(capN, 1_000_000+rng.Int63n(1_000_000_000), order)
	gradNames := make([][]string, fieldBatches+1)
	for i := range gradNames {
		for j := 0; j < fieldBatch; j++ {
			gradNames[i] = append(gradNames[i], fmt.Sprintf("g%d.%d-%04x", i, j, rng.Intn(1<<16)))
		}
	}

	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	var setup []float64
	var c *chain
	heapBase := heapInUse()
	for r := 0; r < setupRounds; r++ {
		start := time.Now()
		c = &chain{opts: opts, subs: subs, tr: tr, start: start, led: led, pool: names,
			pinName: fmt.Sprintf("pin%04x", rng.Intn(1<<16)), pinK: led.base - 1,
			gradients: make(chan gradArrival, 1024), wake: make(chan struct{}, 1)}
		c.awaited.Store(-1)
		if tr != nil {
			tr.base = start
		}
		if err := c.build(); err != nil {
			c.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(start).Seconds())
		if r < setupRounds-1 {
			c.close()
		}
	}
	defer c.close()
	res.set("setup_s", "s", median(setup))
	res.samples["setup"] = len(setup)

	// Half the field batches run before the load and half after it (once
	// the leased floods have expired), so a slow stretch of the host at
	// either end cannot set the run's settle and repair medians.
	runtime.GC() // the discarded builds' garbage stays out of the field phase
	var field fieldSamples
	half := 1 + fieldBatches/2
	before := c.engineStats()
	c.fieldPhase(res, &field, gradNames[:half], 1)
	after := c.engineStats()
	field.sends = (after.Broadcasts + after.Unicasts) - (before.Broadcasts + before.Unicasts)

	res.set("bytes_per_node", "B", float64(heapInUse()-heapBase)/chainLen)

	before = c.engineStats()
	udpBefore := c.udpStats()
	c.startTickers()
	stop := func() time.Duration { return 0 }
	if tr != nil {
		tr.on.Store(true)
		stop = alternate(tr)
	}
	out := c.loadPhase(openN, openSec)
	tracedFor := stop()
	c.account(res, out, openN)
	if tr != nil {
		c.layers(res, out, openN, before, udpBefore, tracedFor)
	}
	// The closing field phase runs without the tickers, as the opening
	// one did, once the sweeps have expired every leased flood.
	c.awaitFloodsExpired(res)
	c.stopTickers()
	c.fieldPhase(res, &field, gradNames[half:], 0)
	field.report(res)
	if tr != nil {
		if err := tr.write(opts.spansDir, fmt.Sprintf("%s-seed%d.jsonl", opts.workload, opts.seed)); err != nil {
			return nil, err
		}
	}
	return res, nil
}
