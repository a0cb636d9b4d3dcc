package coord

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
)

// maxMessageBytes bounds one protocol message's declared sizes — a DoS guard
// against a hostile or corrupted peer lying about a payload length. Large
// enough for any model this repository trains, small enough that a flipped
// length byte cannot demand a terabyte.
const maxMessageBytes = int64(1) << 32

// Conn is one bidirectional protocol connection. Messages are ckpt frames:
// the wire format of a message is byte-identical to the corresponding frame
// of a checkpoint file (28-byte header, CRC32, payload), so the network
// layer inherits the checkpoint codec's corruption detection. Connections
// send raw frames — fp64 parameters do not compress, and a compressed
// update is already deflated inside its blob by the run's codec spec — and
// read whichever style each frame's header declares.
// Send and Recv are each safe for concurrent use (sends from multiple
// goroutines are serialized; one reader at a time).
type Conn interface {
	// Send writes one message and flushes it to the peer.
	Send(f ckpt.Frame) error
	// Recv blocks for the next message. The payload lies in a buffer the
	// connection reuses: it is valid until the next Recv on this connection,
	// and whoever keeps any of it past that must copy it first. Every parser
	// in this package copies what it returns, except parseUpdate's blob.
	Recv() (ckpt.Frame, error)
	// Stats reports total framed bytes sent and received on this connection.
	Stats() (sent, received int64)
	// Close tears the connection down, unblocking any pending Recv.
	Close() error
}

// Listener accepts inbound connections for a coordinator.
type Listener interface {
	// Accept blocks for the next inbound connection.
	Accept() (Conn, error)
	// Addr is the bound address workers dial.
	Addr() string
	// Close stops accepting; pending Accepts fail.
	Close() error
}

// Transport abstracts how coordinator and workers reach each other. Two
// implementations ship: TCP (real distribution) and Loopback (in-process
// pipes moving the same frame bytes), so equivalence tests can pin that the
// transport choice never changes the trained weights.
type Transport interface {
	// Name identifies the transport ("tcp", "loopback") in logs and reports.
	Name() string
	// Listen binds a coordinator endpoint. An empty or ":0" address picks a
	// free one; the chosen address is Listener.Addr.
	Listen(addr string) (Listener, error)
	// Dial connects a worker to a coordinator endpoint.
	Dial(addr string) (Conn, error)
}

// frameConn adapts any stream to Conn with the ckpt frame codec. Writes are
// buffered and flushed per message; byte counters cover the framed bytes
// actually moved, which is what the report's wire column shows.
type frameConn struct {
	c io.ReadWriteCloser

	wmu sync.Mutex
	bw  *bufio.Writer
	rmu sync.Mutex
	fr  *ckpt.FrameReader // over a bufio.Reader; a large payload bypasses its buffer

	sent atomic.Int64
	recv atomic.Int64
}

func newFrameConn(c io.ReadWriteCloser) *frameConn {
	return &frameConn{
		c:  c,
		bw: bufio.NewWriterSize(c, 64<<10),
		fr: ckpt.NewFrameReader(bufio.NewReaderSize(c, 64<<10), maxMessageBytes),
	}
}

func (fc *frameConn) Send(f ckpt.Frame) error {
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	n, err := ckpt.WriteFrame(fc.bw, f, ckpt.StyleRaw)
	if err == nil {
		err = fc.bw.Flush()
	}
	fc.sent.Add(int64(n))
	return err
}

// sendMangled encodes the frame exactly as Send would, hands the encoded
// bytes to mangle for rewriting, and puts the result on the wire. It exists
// for the Chaos transport: injected corruption must happen below the codec,
// on the serialized bytes, so the receiving FrameReader exercises the same
// CRC/structure checks that guard real link damage.
func (fc *frameConn) sendMangled(f ckpt.Frame, mangle func([]byte)) error {
	fc.wmu.Lock()
	defer fc.wmu.Unlock()
	var buf bytes.Buffer
	if _, err := ckpt.WriteFrame(&buf, f, ckpt.StyleRaw); err != nil {
		return err
	}
	b := buf.Bytes()
	mangle(b)
	n, err := fc.bw.Write(b)
	if err == nil {
		err = fc.bw.Flush()
	}
	fc.sent.Add(int64(n))
	return err
}

// Recv reads the next frame into the connection's FrameReader, whose buffers
// the payload aliases: it holds until the next Recv (see Conn).
func (fc *frameConn) Recv() (ckpt.Frame, error) {
	fc.rmu.Lock()
	defer fc.rmu.Unlock()
	f, n, err := fc.fr.Next()
	fc.recv.Add(int64(n))
	return f, err
}

func (fc *frameConn) Stats() (sent, received int64) {
	return fc.sent.Load(), fc.recv.Load()
}

func (fc *frameConn) Close() error { return fc.c.Close() }

// TCP is the real network transport: length-prefixed ckpt frames over a TCP
// stream.
type TCP struct{}

// dialTimeout bounds TCP connection establishment.
const dialTimeout = 10 * time.Second

// Name implements Transport.
func (t *TCP) Name() string { return "tcp" }

// Listen implements Transport.
func (t *TCP) Listen(addr string) (Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("coord: listen %s: %w", addr, err)
	}
	return &tcpListener{l: l}, nil
}

// Dial implements Transport.
func (t *TCP) Dial(addr string) (Conn, error) {
	c, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("coord: dial %s: %w", addr, err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // the protocol is ping-pong; don't batch small frames
	}
	return newFrameConn(c), nil
}

type tcpListener struct {
	l net.Listener
}

func (tl *tcpListener) Accept() (Conn, error) {
	c, err := tl.l.Accept()
	if err != nil {
		return nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return newFrameConn(c), nil
}

func (tl *tcpListener) Addr() string { return tl.l.Addr().String() }
func (tl *tcpListener) Close() error { return tl.l.Close() }

// Loopback is the in-process transport: synchronous net.Pipe pairs carrying
// the same frame bytes TCP would, with no sockets involved. A Loopback value
// is its own private address space; coordinator and workers must share it.
type Loopback struct {
	mu        sync.Mutex
	next      int
	listeners map[string]*loopListener
}

// NewLoopback returns an empty in-process transport.
func NewLoopback() *Loopback { return &Loopback{} }

// Name implements Transport.
func (t *Loopback) Name() string { return "loopback" }

// Listen implements Transport. An empty address allocates "loop:<n>".
func (t *Loopback) Listen(addr string) (Listener, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.listeners == nil {
		t.listeners = make(map[string]*loopListener)
	}
	if addr == "" || addr == ":0" {
		t.next++
		addr = fmt.Sprintf("loop:%d", t.next)
	}
	if _, ok := t.listeners[addr]; ok {
		return nil, fmt.Errorf("coord: loopback address %s already bound", addr)
	}
	ll := &loopListener{
		t:      t,
		addr:   addr,
		accept: make(chan net.Conn),
		done:   make(chan struct{}),
	}
	t.listeners[addr] = ll
	return ll, nil
}

// Dial implements Transport.
func (t *Loopback) Dial(addr string) (Conn, error) {
	t.mu.Lock()
	ll := t.listeners[addr]
	t.mu.Unlock()
	if ll == nil {
		return nil, fmt.Errorf("coord: no loopback listener at %s", addr)
	}
	client, server := net.Pipe()
	select {
	case ll.accept <- server:
		return newFrameConn(client), nil
	case <-ll.done:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("coord: loopback listener at %s is closed", addr)
	}
}

type loopListener struct {
	t      *Loopback
	addr   string
	accept chan net.Conn
	done   chan struct{}
	once   sync.Once
}

func (ll *loopListener) Accept() (Conn, error) {
	select {
	case c := <-ll.accept:
		return newFrameConn(c), nil
	case <-ll.done:
		return nil, fmt.Errorf("coord: loopback listener at %s is closed", ll.addr)
	}
}

func (ll *loopListener) Addr() string { return ll.addr }

func (ll *loopListener) Close() error {
	ll.once.Do(func() {
		close(ll.done)
		ll.t.mu.Lock()
		delete(ll.t.listeners, ll.addr)
		ll.t.mu.Unlock()
	})
	return nil
}
