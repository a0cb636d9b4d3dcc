package coord

// Chaos is the fault-injection transport: it wraps any Transport and damages
// the traffic the way flaky edge links do — refused dials, connections
// dropped mid-round, added latency, flipped bits, partitions — from a seeded
// generator, so a failing soak run replays exactly.
//
// The one invariant chaos must never break: corruption is injected into the
// serialized frame bytes (below the codec), so the receiver's FrameReader CRC
// check rejects it as ckpt.ErrCorrupt. Damaged data surfaces as a typed
// connection error that the fault-tolerance machinery handles — it never
// reaches an aggregator fold.

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/obs"
)

// crcOffset is where the CRC32 sits in the 28-byte ckpt frame header (after
// type, style and the two lengths). Injected bit flips stay at or after it:
// they land in the CRC or the payload, either of which guarantees the
// receiver sees a checksum mismatch (ErrCorrupt) rather than a silently
// reinterpreted header field.
const crcOffset = 24

// Chaos wraps a Transport with deterministic seeded fault injection. All
// probabilities are in [0, 1]; zero values inject nothing, so a zero Chaos
// is a transparent proxy. Every connection draws faults from its own
// generator seeded with Seed plus a connection counter, so runs are
// reproducible given the same seed and connection order.
type Chaos struct {
	// Inner is the real transport carrying the frames.
	Inner Transport
	// Seed makes the injected faults deterministic.
	Seed int64
	// DialRefuse is the probability a Dial fails outright, as a down or
	// unreachable coordinator would refuse it.
	DialRefuse float64
	// Drop is the per-send probability the connection is torn down instead
	// of delivering the frame — a link failing mid-round.
	Drop float64
	// Corrupt is the per-send probability one bit of the serialized frame
	// is flipped in flight. Requires the inner transport's frameConn codec;
	// the receiver must observe ckpt.ErrCorrupt.
	Corrupt float64
	// LatencyMax, when positive, delays each send and each receive by a
	// uniform random duration in [0, LatencyMax).
	LatencyMax time.Duration

	mu        sync.Mutex
	rng       *rand.Rand
	conns     int64
	partUntil time.Time

	// corrupted counts frames mangled in flight; tests use it to assert
	// injected damage actually happened and was survived.
	corrupted int64
}

// Name implements Transport.
func (t *Chaos) Name() string { return "chaos+" + t.Inner.Name() }

// PartitionFor simulates a network partition lasting d from now: every Dial
// is refused and every established connection fails on its next send.
func (t *Chaos) PartitionFor(d time.Duration) {
	t.mu.Lock()
	t.partUntil = time.Now().Add(d)
	t.mu.Unlock()
}

// Corrupted reports how many frames chaos has mangled in flight so far.
func (t *Chaos) Corrupted() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.corrupted
}

func (t *Chaos) partitioned() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Now().Before(t.partUntil)
}

func (t *Chaos) countCorrupt() {
	t.mu.Lock()
	t.corrupted++
	t.mu.Unlock()
}

// chaosInjected publishes one injected fault to the observability layer
// (injections are rare, so the per-call handle lookup is fine here).
func chaosInjected(kind string) {
	obs.Default().CounterWith("coord_chaos_events_total",
		"Faults the chaos transport injected, by kind.", obs.L("kind", kind)).Inc()
	obs.DefaultTracer().Event("chaos-injection", -1, -1, kind)
}

// newConnRNG allocates the next connection's private fault generator.
func (t *Chaos) newConnRNG() *rand.Rand {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(t.Seed))
	}
	t.conns++
	return rand.New(rand.NewSource(t.Seed + t.conns))
}

// Listen implements Transport; accepted connections inject the same faults
// dialed ones do, so coordinator-to-worker traffic (the broadcast) is as
// exposed as the uplink.
func (t *Chaos) Listen(addr string) (Listener, error) {
	l, err := t.Inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &chaosListener{t: t, l: l}, nil
}

// Dial implements Transport.
func (t *Chaos) Dial(addr string) (Conn, error) {
	if t.partitioned() {
		return nil, fmt.Errorf("coord: chaos: dial %s refused (partition)", addr)
	}
	if t.DialRefuse > 0 {
		t.mu.Lock()
		if t.rng == nil {
			t.rng = rand.New(rand.NewSource(t.Seed))
		}
		refuse := t.rng.Float64() < t.DialRefuse
		t.mu.Unlock()
		if refuse {
			return nil, fmt.Errorf("coord: chaos: dial %s refused (injected)", addr)
		}
	}
	c, err := t.Inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return t.wrap(c), nil
}

func (t *Chaos) wrap(c Conn) Conn {
	cc := &chaosConn{inner: c, t: t, rng: t.newConnRNG()}
	cc.fc, _ = c.(*frameConn)
	return cc
}

type chaosListener struct {
	t *Chaos
	l Listener
}

func (cl *chaosListener) Accept() (Conn, error) {
	c, err := cl.l.Accept()
	if err != nil {
		return nil, err
	}
	return cl.t.wrap(c), nil
}

func (cl *chaosListener) Addr() string { return cl.l.Addr() }
func (cl *chaosListener) Close() error { return cl.l.Close() }

// chaosConn injects per-frame faults around an inner connection. The rng is
// mutex-guarded: Conn promises Send is safe for concurrent use and the
// heartbeat sender runs beside the protocol goroutine.
type chaosConn struct {
	inner Conn
	fc    *frameConn
	t     *Chaos

	mu  sync.Mutex
	rng *rand.Rand
}

func (cc *chaosConn) Send(f ckpt.Frame) error {
	if cc.t.partitioned() {
		cc.inner.Close()
		return fmt.Errorf("coord: chaos: connection dropped (partition)")
	}
	cc.mu.Lock()
	drop := cc.t.Drop > 0 && cc.rng.Float64() < cc.t.Drop
	corrupt := !drop && cc.fc != nil && cc.t.Corrupt > 0 && cc.rng.Float64() < cc.t.Corrupt
	var delay time.Duration
	if cc.t.LatencyMax > 0 {
		delay = time.Duration(cc.rng.Int63n(int64(cc.t.LatencyMax)))
	}
	// Drawing the flip position now keeps every rng access under the lock;
	// the draw is reduced modulo the frame length once it is known.
	var flip int64
	if corrupt {
		flip = cc.rng.Int63()
	}
	cc.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if drop {
		cc.inner.Close()
		chaosInjected("drop")
		return fmt.Errorf("coord: chaos: connection dropped (injected)")
	}
	if corrupt {
		cc.t.countCorrupt()
		chaosInjected("corrupt")
		return cc.fc.sendMangled(f, func(b []byte) {
			// Flip one bit at or after the CRC: the receiver's checksum
			// check must fail, so the damage surfaces as ckpt.ErrCorrupt.
			off := crcOffset + int(flip%int64(len(b)-crcOffset))
			b[off] ^= 1 << uint((flip>>32)%8)
		})
	}
	return cc.inner.Send(f)
}

func (cc *chaosConn) Recv() (ckpt.Frame, error) {
	f, err := cc.inner.Recv()
	if err == nil && cc.t.LatencyMax > 0 {
		cc.mu.Lock()
		delay := time.Duration(cc.rng.Int63n(int64(cc.t.LatencyMax)))
		cc.mu.Unlock()
		time.Sleep(delay)
	}
	return f, err
}

func (cc *chaosConn) Stats() (sent, received int64) { return cc.inner.Stats() }
func (cc *chaosConn) Close() error                  { return cc.inner.Close() }
