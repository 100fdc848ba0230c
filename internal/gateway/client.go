package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"tota/internal/retry"
	"tota/internal/tuple"
)

// Client errors.
var (
	ErrClientClosed = errors.New("gateway: client closed")
	ErrTimeout      = errors.New("gateway: request timed out")
	ErrDisconnected = errors.New("gateway: not connected")
)

const (
	// dialTimeout bounds one connection attempt.
	dialTimeout = 3 * time.Second
	// reconnectMax caps the backoff between reconnection attempts.
	// Reconnection retries forever while the client is open —
	// transparent resubscribe-with-replay is the whole point.
	reconnectMax = 2 * time.Second
)

// ClientConfig tunes a Client; zero values select defaults.
type ClientConfig struct {
	// Policy is the request retry/backoff budget (shared machinery
	// with the testnet poller, internal/retry). Nil gets retry.New(1).
	Policy *retry.Policy
	// RequestTimeout bounds one RPC round trip (default 5s).
	RequestTimeout time.Duration
	// EventBuffer is each subscription's delivery channel depth
	// (default 1024). A consumer that stops draining eventually
	// backpressures the socket, which surfaces at the gateway as
	// accounted slow-consumer drops.
	EventBuffer int
}

// SubEvent is one delivery on a subscription channel.
type SubEvent struct {
	// Type is the engine event name ("tuple-arrived", "tuple-removed",
	// "neighbor-added", "neighbor-removed").
	Type string
	// Tuple is the decoded event tuple (nil if its kind is unknown to
	// the client registry).
	Tuple tuple.Tuple
	// Peer is set on neighbor events.
	Peer string
	// GSeq is the per-gateway global sequence; strictly increasing per
	// subscription within one Epoch after client-side dedup. A filtered
	// subscription legitimately skips the GSeq values held by
	// non-matching events.
	GSeq uint64
	// DSeq is the per-subscription delivery sequence on the current
	// server-side attachment: it counts only events matching this
	// subscription's template, restarting at 1 on each (re)subscribe,
	// so a gap in DSeq means matched events went missing — which only
	// the drop accounting may explain (verified internally; see
	// GapViolations).
	DSeq uint64
	// Drops is the cumulative slow-consumer drop count over the
	// subscription's whole lifetime, accumulated client-side across
	// reconnects: growth means the gateway shed matched events to this
	// connection's bounded queue, so a consumer needing a complete view
	// should rebuild (e.g. by a Read).
	Drops uint64
	// Replay marks events re-delivered from the gateway's ring.
	Replay bool
	// Resync marks a synthetic marker event (no tuple): the gateway
	// epoch changed or replay missed, so state accumulated before this
	// point is unreliable and should be rebuilt (e.g. by a Read).
	Resync bool
	// Epoch is the gateway instance the event came from.
	Epoch string
}

// Subscription is a client-side subscription handle. It survives
// reconnects: the client transparently resubscribes with
// replay-from-seq and dedups redelivered events, so Events sees every
// event at least once, in order, per epoch.
type Subscription struct {
	// Events delivers matching engine events; closed by Unsubscribe
	// and Client.Close.
	Events chan SubEvent

	tpl json.RawMessage // the template, sent on every (re)subscribe

	// stopped and abort are what Unsubscribe touches directly: closing
	// abort ends a loop send blocked on a full Events channel, so the
	// detach message behind it can reach the loop.
	stopped atomic.Bool
	abort   chan struct{}

	// gaps and drops are the tracker's counts for the getters; only the
	// loop stores them (publish).
	gaps  atomic.Int64
	drops atomic.Uint64

	// Owned by the client loop.
	tr       tracker
	serverID uint64        // id on the current connection, 0 while detached
	waiter   chan Response // the Subscribe call waiting for the next ack
}

// Drops returns the cumulative slow-consumer drops over the
// subscription's lifetime, across reconnects.
func (s *Subscription) Drops() uint64 { return s.drops.Load() }

// GapViolations counts events whose delivery-sequence gap was NOT
// covered by the gateway's drop accounting — zero on a healthy run;
// non-zero means the no-silent-gaps contract broke. The check runs in
// the per-subscription delivery sequence (DSeq), so it is meaningful
// for filtered templates too.
func (s *Subscription) GapViolations() int { return int(s.gaps.Load()) }

// publish stores the tracker's counts for the getters.
func (s *Subscription) publish() {
	s.gaps.Store(int64(s.tr.gapErrors))
	s.drops.Store(s.tr.dropsBase + s.tr.drops)
}

// wake answers the Subscribe call waiting on s, if any.
func (s *Subscription) wake(resp Response) {
	if s.waiter != nil {
		s.waiter <- resp
		s.waiter = nil
	}
}

// tracker is one handle's sequence state across server-side
// attachments.
type tracker struct {
	epoch    string
	lastSeq  uint64 // newest gseq delivered in epoch
	lastDSeq uint64 // newest dseq on the current attachment
	// drops is the current attachment's cumulative drop counter (it
	// restarts at zero on every resubscribe); dropsBase accumulates the
	// drops of previous attachments so the handle's count stays
	// monotonic over its lifetime.
	drops     uint64
	dropsBase uint64
	gapErrors int
}

// attach applies a subscribe ack and reports whether a Resync marker
// is due. Every ack is a fresh server-side attachment whose delivery
// sequence and drop counter restart at zero, regardless of epoch or
// replay outcome, so the per-attachment trackers reset too; otherwise
// a stale counter would flag the next legitimate drop-covered gap as a
// violation. An epoch change or replay miss also resets the global
// sequence, so the new epoch's replay passes dedup.
func (t *tracker) attach(epoch, replay string) (resync bool) {
	resync = (t.epoch != "" && t.epoch != epoch) || replay == ReplayMiss
	if resync {
		t.lastSeq = 0
	}
	t.dropsBase += t.drops
	t.drops = 0
	t.lastDSeq = 0
	t.epoch = epoch
	return resync
}

// observe runs the gap and drop checks for one event and reports
// whether it is new. Gap verification runs in the per-subscription
// delivery sequence (DSeq): a filtered subscription legitimately skips
// global sequence numbers held by non-matching events, but a DSeq gap
// means matched events went missing, which only accounted drops may
// explain. A redelivery (replay overlapping live fan-out) still
// advances the trackers before dedup discards it.
func (t *tracker) observe(ev *Event) (fresh bool) {
	if ev.DSeq > t.lastDSeq {
		if gap := ev.DSeq - t.lastDSeq - 1; gap > 0 && ev.Drops < t.drops+gap {
			t.gapErrors++
		}
		t.lastDSeq = ev.DSeq
	}
	if ev.Drops > t.drops {
		t.drops = ev.Drops
	}
	if ev.GSeq <= t.lastSeq {
		return false
	}
	t.lastSeq = ev.GSeq
	return true
}

// Client is the resilient gateway RPC client: request timeouts,
// bounded retries with seeded-jitter exponential backoff (shared with
// the testnet poller via internal/retry), and transparent
// resubscribe-with-replay across reconnects.
//
// One loop goroutine (run) owns all of the client's state; the public
// methods are messages to it. A reader goroutine per connection only
// decodes frames and hands them over unbuffered, so the loop handles
// frames in wire order and a loop blocked on a slow consumer stops
// reading the socket.
type Client struct {
	addr   string
	cfg    ClientConfig
	calls  chan call
	ctx    context.Context // done once Close starts
	cancel context.CancelFunc
	done   chan struct{} // closed when the loop has exited

	// Owned by the loop.
	link   *link // current connection, nil while down
	reqSeq uint64
	subs   map[*Subscription]struct{} // registered handles
}

// link is one live connection. Server subscription ids and pending
// requests mean nothing beyond it.
type link struct {
	nc      net.Conn
	frames  chan Frame
	pending map[uint64]call
	bySub   map[uint64]*Subscription // server sub id → handle
	// toSub holds the handles still to subscribe on this connection.
	// One subscribe RPC is in flight at a time (subBusy), as when each
	// caller waits for its ack: the gateway closes a connection whose
	// queue cannot take an ack, so a reconnect must not pour every
	// handle's ack and replay into that queue at once.
	toSub   []*Subscription
	subBusy bool
}

// call is one message to the loop: a plain RPC, or (sub set) an
// attach (OpSubscribe) or detach (OpUnsubscribe) of a handle. Once
// written, a request waits in link.pending as a call too, with sub set
// only on subscribe RPCs. reply gets the response, or is closed on a
// transport failure, which is retryable; only a gateway verdict is
// permanent.
type call struct {
	req   Request
	sub   *Subscription
	reply chan Response
}

// Dial creates a client for the gateway at addr and starts its loop.
// It returns immediately; the first RPC blocks until a connection
// exists or its retry budget is spent.
func Dial(addr string, cfg ClientConfig) *Client {
	if cfg.Policy == nil {
		cfg.Policy = retry.New(1)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 1024
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Client{
		addr:   addr,
		cfg:    cfg,
		calls:  make(chan call),
		ctx:    ctx,
		cancel: cancel,
		done:   make(chan struct{}),
		subs:   make(map[*Subscription]struct{}),
	}
	go c.run()
	return c
}

// Close shuts the client down: the connection drops, pending requests
// fail, and every subscription channel closes.
func (c *Client) Close() error {
	c.cancel()
	<-c.done
	return nil
}

// run is the loop: dial with capped backoff, resubscribe every
// registered handle with replay-from-seq, serve calls and frames until
// the connection dies, repeat.
func (c *Client) run() {
	defer close(c.done)
	var redial <-chan time.Time
	attempt := 0
	for {
		if c.link == nil && redial == nil {
			if err := c.connect(); err != nil {
				attempt++
				redial = time.After(min(c.cfg.Policy.Backoff(attempt), reconnectMax))
			} else {
				attempt = 0
			}
		}
		var frames chan Frame
		if c.link != nil {
			frames = c.link.frames
		}
		select {
		case <-c.ctx.Done():
			c.drop()
			for s := range c.subs {
				close(s.Events)
			}
			return
		case cl := <-c.calls:
			switch {
			case cl.sub == nil:
				c.send(cl)
			case cl.req.Op == OpSubscribe:
				c.attach(cl.sub, cl.reply)
			default:
				c.detach(cl.sub, cl.reply)
			}
		case fr, ok := <-frames:
			switch {
			case !ok:
				c.drop()
			case fr.Resp != nil:
				c.onResponse(*fr.Resp)
			case fr.Event != nil:
				c.onEvent(fr.Event)
			}
		case <-redial:
			redial = nil
		}
	}
}

func (c *Client) connect() error {
	d := net.Dialer{Timeout: dialTimeout}
	nc, err := d.DialContext(c.ctx, "tcp", c.addr)
	if err != nil {
		return err
	}
	l := &link{
		nc:      nc,
		frames:  make(chan Frame),
		pending: make(map[uint64]call),
		bySub:   make(map[uint64]*Subscription),
	}
	for s := range c.subs {
		l.toSub = append(l.toSub, s)
	}
	go readFrames(nc, l.frames)
	c.link = l
	c.subscribeNext()
	return nil
}

// readFrames decodes frames until the connection fails, then closes
// frames. Only the loop stops it, by closing nc and draining frames.
func readFrames(nc net.Conn, frames chan<- Frame) {
	defer close(frames)
	for {
		var fr Frame
		if err := ReadFrame(nc, &fr); err != nil {
			return
		}
		frames <- fr
	}
}

// drop abandons the current connection: it closes the socket, waits
// for the reader to exit, fails every request and Subscribe call in
// flight and detaches every handle.
func (c *Client) drop() {
	l := c.link
	if l == nil {
		return
	}
	c.link = nil
	_ = l.nc.Close()
	for range l.frames {
	}
	for _, p := range l.pending {
		if p.reply != nil {
			close(p.reply)
		}
	}
	for s := range c.subs {
		s.serverID = 0
		if s.waiter != nil {
			close(s.waiter)
			s.waiter = nil
		}
	}
}

// send writes p's request on the current connection and records p to
// receive its response.
func (c *Client) send(p call) {
	l := c.link
	if l == nil {
		if p.reply != nil {
			close(p.reply)
		}
		return
	}
	c.reqSeq++
	p.req.Seq = c.reqSeq
	l.pending[p.req.Seq] = p
	buf, err := EncodeFrame(p.req)
	if err != nil {
		// Answered as the gateway answers a request it cannot serve.
		c.onResponse(Response{Seq: p.req.Seq, Err: err.Error()})
		return
	}
	_ = l.nc.SetWriteDeadline(time.Now().Add(c.cfg.RequestTimeout))
	if _, err := l.nc.Write(buf); err != nil {
		c.drop()
	}
}

// attach registers s on first sight and answers r once s is attached
// on the current connection.
func (c *Client) attach(s *Subscription, r chan Response) {
	if _, ok := c.subs[s]; !ok {
		c.subs[s] = struct{}{}
		if c.link != nil {
			c.link.toSub = append(c.link.toSub, s)
			c.subscribeNext()
		}
	}
	switch {
	case s.serverID != 0:
		r <- Response{OK: true}
	case c.link == nil:
		close(r)
	default:
		s.waiter = r
	}
}

// detach unregisters s, closes its Events and drops its server-side
// subscription; r gets the unsubscribe RPC's response.
func (c *Client) detach(s *Subscription, r chan Response) {
	id := s.serverID
	if _, ok := c.subs[s]; ok {
		delete(c.subs, s)
		close(s.Events)
		s.serverID = 0
	}
	if id == 0 {
		r <- Response{OK: true}
		return
	}
	delete(c.link.bySub, id)
	c.send(call{req: Request{Op: OpUnsubscribe, Sub: id}, reply: r})
}

// subscribeNext sends the subscribe RPC for the next handle waiting on
// this connection, resuming from its tracker.
func (c *Client) subscribeNext() {
	l := c.link
	for l != nil && !l.subBusy && len(l.toSub) > 0 {
		s := l.toSub[0]
		l.toSub = l.toSub[1:]
		if _, ok := c.subs[s]; ok {
			l.subBusy = true
			c.send(call{req: Request{Op: OpSubscribe, Template: s.tpl, FromSeq: s.tr.lastSeq, Epoch: s.tr.epoch}, sub: s})
		}
	}
}

func (c *Client) onResponse(resp Response) {
	l := c.link
	p, ok := l.pending[resp.Seq]
	if !ok {
		return
	}
	delete(l.pending, resp.Seq)
	s := p.sub
	if s == nil {
		if p.reply != nil {
			p.reply <- resp
		}
		return
	}
	l.subBusy = false
	_, live := c.subs[s]
	switch {
	case !live:
		if resp.Err == "" {
			// Unsubscribed while the RPC was in flight: drop the
			// server-side subscription it created.
			c.send(call{req: Request{Op: OpUnsubscribe, Sub: resp.Sub}})
		}
	case resp.Err != "":
		s.wake(resp)
	default:
		s.serverID = resp.Sub
		l.bySub[resp.Sub] = s
		resync := s.tr.attach(resp.Epoch, resp.Replay)
		s.publish()
		s.wake(resp)
		if resync {
			// The gateway queues the replay right behind the ack, and
			// the loop reads no frame before this returns, so the
			// marker precedes every event of the new attachment.
			c.deliver(s, SubEvent{Resync: true, Epoch: resp.Epoch})
		}
	}
	c.subscribeNext()
}

// onEvent routes one event frame to its handle, runs the sequence
// checks and delivers the event unless it is a redelivery.
func (c *Client) onEvent(ev *Event) {
	s := c.link.bySub[ev.Sub]
	if s == nil {
		return
	}
	fresh := s.tr.observe(ev)
	s.publish()
	if !fresh {
		return
	}
	out := SubEvent{
		Type:   ev.Type,
		Peer:   ev.Peer,
		GSeq:   ev.GSeq,
		DSeq:   ev.DSeq,
		Drops:  s.tr.dropsBase + s.tr.drops,
		Replay: ev.Replay,
		Epoch:  s.tr.epoch,
	}
	if len(ev.Tuple) > 0 {
		if t, err := tuple.UnmarshalTupleJSON(tuple.DefaultRegistry, ev.Tuple); err == nil {
			out.Tuple = t
		}
	}
	c.deliver(s, out)
}

// deliver hands ev to s's consumer. While Events is full it blocks —
// and with it the reader, which backpressures the socket — until the
// consumer takes ev, Unsubscribe aborts s, or Close.
func (c *Client) deliver(s *Subscription, ev SubEvent) {
	select {
	case s.Events <- ev:
	case <-s.abort:
	case <-c.ctx.Done():
	}
}

// call hands one message to the loop and waits for the answer, both
// within one RequestTimeout.
func (c *Client) call(req Request, s *Subscription) (Response, error) {
	ctx, cancel := context.WithTimeout(c.ctx, c.cfg.RequestTimeout)
	defer cancel()
	cl := call{req: req, sub: s, reply: make(chan Response, 1)}
	select {
	case c.calls <- cl:
		select {
		case resp, ok := <-cl.reply:
			if !ok {
				return Response{}, ErrDisconnected
			}
			return resp, nil
		case <-ctx.Done():
		}
	case <-ctx.Done():
	}
	if c.ctx.Err() != nil {
		return Response{}, ErrClientClosed
	}
	return Response{}, ErrTimeout
}

// do runs one call under the retry policy.
func (c *Client) do(req Request, s *Subscription) (Response, error) {
	var resp Response
	err := c.cfg.Policy.Do(func() error {
		r, err := c.call(req, s)
		if err != nil {
			if errors.Is(err, ErrClientClosed) {
				return retry.Permanent(err)
			}
			return err
		}
		if r.Err != "" {
			// Application-level errors are permanent: retrying a bad
			// template or unknown kind cannot help.
			return retry.Permanent(errors.New(r.Err))
		}
		resp = r
		return nil
	}, c.ctx.Done())
	return resp, err
}

// Ping round-trips a no-op and returns the gateway's epoch and current
// event sequence.
func (c *Client) Ping() (epoch string, seq uint64, err error) {
	resp, err := c.do(Request{Op: OpPing}, nil)
	if err != nil {
		return "", 0, err
	}
	return resp.Epoch, resp.NextSeq, nil
}

// Inject creates t in the tuple space through the gateway and returns
// the assigned id.
func (c *Client) Inject(t tuple.Tuple) (tuple.ID, error) {
	if t == nil {
		return tuple.ID{}, fmt.Errorf("gateway: nil tuple")
	}
	resp, err := c.do(Request{Op: OpInject, Kind: t.Kind(), Content: t.Content()}, nil)
	if err != nil {
		return tuple.ID{}, err
	}
	return tuple.ParseID(resp.ID)
}

// Read queries the gateway node's local tuple space.
func (c *Client) Read(tpl tuple.Template) ([]tuple.Tuple, error) {
	tplJSON, err := tuple.MarshalTemplateJSON(tpl)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(Request{Op: OpRead, Template: tplJSON}, nil)
	if err != nil {
		return nil, err
	}
	var out []tuple.Tuple
	for _, raw := range resp.Tuples {
		if t, err := tuple.UnmarshalTupleJSON(tuple.DefaultRegistry, raw); err == nil {
			out = append(out, t)
		}
	}
	return out, nil
}

// Subscribe registers a subscription for events matching tpl and
// blocks until the gateway acknowledges it (or the retry budget is
// spent). The subscription survives reconnects transparently.
func (c *Client) Subscribe(tpl tuple.Template) (*Subscription, error) {
	tplJSON, err := tuple.MarshalTemplateJSON(tpl)
	if err != nil {
		return nil, err
	}
	s := &Subscription{
		tpl:    tplJSON,
		Events: make(chan SubEvent, c.cfg.EventBuffer),
		abort:  make(chan struct{}),
	}
	// The first attempt registers the handle with the loop, which
	// (re)subscribes it on every connect; retries only wait for that.
	if _, err := c.do(Request{Op: OpSubscribe}, s); err != nil {
		_ = c.Unsubscribe(s)
		return nil, err
	}
	return s, nil
}

// Unsubscribe drops the subscription and closes its channel.
func (c *Client) Unsubscribe(s *Subscription) error {
	if !s.stopped.CompareAndSwap(false, true) {
		return nil
	}
	close(s.abort)
	_, err := c.do(Request{Op: OpUnsubscribe}, s)
	if c.ctx.Err() != nil {
		// Close has closed Events, and the connection took every
		// server-side subscription with it.
		return nil
	}
	return err
}
