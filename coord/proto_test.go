package coord

import (
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/tensor"
)

func TestHelloRoundTrip(t *testing.T) {
	h := hello{
		version:     ProtocolVersion,
		name:        "w0-waggle",
		device:      "waggle",
		budgetBytes: 2_000_000_000,
		aggregators: []string{"fedavg", "allreduce"},
		strategies:  []string{"storeall", "revolve", "twolevel"},
		codecs:      []string{"topk", "fp16", "int8", "deflate"},
	}
	f := encodeHello(h)
	if f.Type != msgHello {
		t.Fatalf("frame type %d", f.Type)
	}
	got, err := parseHello(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("round trip: %+v != %+v", got, h)
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	base := Assignment{
		Index: 2, Workers: 5, Rounds: 10, LocalEpochs: 2, BatchSize: 8,
		Samples: 640, Seed: 12345, Aggregator: "allreduce", Optimizer: "momentum", LR: 0.05,
	}
	t.Run("fresh join", func(t *testing.T) {
		got, err := parseWelcome(encodeWelcome(base).Payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("round trip: %+v != %+v", got, base)
		}
	})
	t.Run("rejoin with state", func(t *testing.T) {
		a := base
		a.State = &ckpt.WorkerState{
			Index: 2, Name: "w2", Rounds: 7, Samples: 896,
			Opt: ckpt.OptimizerState{
				Name: "momentum", Step: 7,
				Slots: []ckpt.OptSlot{{Param: "fc1.weight", Slot: "velocity", Data: []float64{0.25, -1.5, 3e-9}}},
			},
		}
		got, err := parseWelcome(encodeWelcome(a).Payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, a) {
			t.Fatalf("round trip: %+v != %+v", got, a)
		}
	})
}

// randTensor fills a fresh tensor with standard normal draws.
func randTensor(rng *tensor.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	d := t.Data()
	for i := range d {
		d[i] = rng.Normal(0, 1)
	}
	return t
}

func TestRoundMsgRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(3)
	m := roundMsg{
		round: 4,
		params: []ckpt.NamedTensor{
			{Name: "fc1.weight", Tensor: randTensor(rng, 8, 4)},
			{Name: "fc1.bias", Tensor: randTensor(rng, 4)},
		},
	}
	f, err := encodeRound(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseRound(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.round != m.round || len(got.params) != len(m.params) {
		t.Fatalf("round trip: %+v", got)
	}
	for i := range m.params {
		if got.params[i].Name != m.params[i].Name {
			t.Fatalf("param %d name %q", i, got.params[i].Name)
		}
		if !reflect.DeepEqual(got.params[i].Tensor.Data(), m.params[i].Tensor.Data()) {
			t.Fatalf("param %d data differs", i)
		}
	}
}

func TestUpdateRoundTrip(t *testing.T) {
	rng := tensor.NewRNG(9)
	m := updateMsg{
		round:    3,
		samples:  17,
		loss:     2.1972,
		duration: 257 * time.Millisecond,
		strategy: "revolve",
		stats: fleet.Update{Usage: chain.Usage{
			ForwardEvals: 40, BackwardEvals: 12, PeakStates: 5,
			PeakStateBytes: 1 << 20, PeakDiskBytes: 1 << 18, DiskWrites: 6, DiskReads: 6,
		}},
		vecs: []*tensor.Tensor{randTensor(rng, 8, 4), randTensor(rng, 4)},
		state: ckpt.WorkerState{
			Index: 1, Name: "w1", Rounds: 4, Samples: 68,
			Opt: ckpt.OptimizerState{Name: "sgd", Step: 4},
		},
	}
	f, err := encodeUpdate(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseUpdate(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.round != m.round || got.samples != m.samples || got.loss != m.loss ||
		got.duration != m.duration || got.strategy != m.strategy {
		t.Fatalf("header round trip: %+v", got)
	}
	if !reflect.DeepEqual(got.stats, m.stats) {
		t.Fatalf("stats round trip: %+v != %+v", got.stats, m.stats)
	}
	for i := range m.vecs {
		if !reflect.DeepEqual(got.vecs[i].Data(), m.vecs[i].Data()) {
			t.Fatalf("vec %d differs", i)
		}
	}
	if !reflect.DeepEqual(got.state, m.state) {
		t.Fatalf("state round trip: %+v != %+v", got.state, m.state)
	}
}

func TestAckAndErrorRoundTrip(t *testing.T) {
	a, err := parseAck(encodeAck(ackMsg{round: 6, status: AckLate}).Payload)
	if err != nil || a.round != 6 || a.status != AckLate {
		t.Fatalf("ack round trip: %+v, %v", a, err)
	}
	msg, err := parseError(encodeError("fleet full").Payload)
	if err != nil || msg != "fleet full" {
		t.Fatalf("error round trip: %q, %v", msg, err)
	}
}

func TestTruncatedPayloadsRejected(t *testing.T) {
	frames := []ckpt.Frame{
		encodeHello(hello{version: 1, name: "w", aggregators: []string{"fedavg"}}),
		encodeWelcome(Assignment{Index: 1, Workers: 3}),
		encodeAck(ackMsg{round: 1, status: AckOK}),
	}
	parsers := []func([]byte) error{
		func(b []byte) error { _, err := parseHello(b); return err },
		func(b []byte) error { _, err := parseWelcome(b); return err },
		func(b []byte) error { _, err := parseAck(b); return err },
	}
	for i, f := range frames {
		for cut := 1; cut < len(f.Payload); cut += 3 {
			if err := parsers[i](f.Payload[:len(f.Payload)-cut]); err == nil {
				t.Fatalf("frame %d truncated by %d accepted", i, cut)
			}
		}
	}
}

// deflateSender is a peer that frames what it sends with DEFLATE, as an
// earlier version's -wire-deflate did: it writes past the connection's own
// Send, straight onto the stream.
type deflateSender struct{ *frameConn }

func (d deflateSender) Send(f ckpt.Frame) error {
	n, err := ckpt.WriteFrame(d.c, f, ckpt.StyleDeflate)
	d.sent.Add(int64(n))
	return err
}

// TestConnFrameExchange pins that both transports move frames intact, with
// byte accounting, and that a connection reads DEFLATE frames although it
// only ever sends raw ones.
func TestConnFrameExchange(t *testing.T) {
	payload := make([]byte, 10_000)
	for i := range payload {
		payload[i] = byte(i % 251)
	}
	exchange := func(t *testing.T, client, server Conn) {
		defer client.Close()
		defer server.Close()
		errc := make(chan error, 1)
		go func() {
			f, err := server.Recv()
			if err == nil {
				err = server.Send(f)
			}
			errc <- err
		}()
		if err := client.Send(ckpt.Frame{Type: msgUpdate, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		f, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if f.Type != msgUpdate || !reflect.DeepEqual(f.Payload, payload) {
			t.Fatalf("echoed frame differs")
		}
		sent, received := client.Stats()
		if sent <= 0 || received <= 0 {
			t.Fatalf("stats not accounted: sent %d received %d", sent, received)
		}
	}
	dialAndAccept := func(t *testing.T, tr Transport) (Conn, Conn) {
		l, err := tr.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		type acc struct {
			c   Conn
			err error
		}
		ac := make(chan acc, 1)
		go func() {
			c, err := l.Accept()
			ac <- acc{c, err}
		}()
		client, err := tr.Dial(l.Addr())
		if err != nil {
			t.Fatal(err)
		}
		a := <-ac
		if a.err != nil {
			t.Fatal(a.err)
		}
		return client, a.c
	}
	t.Run("loopback raw", func(t *testing.T) {
		client, server := dialAndAccept(t, NewLoopback())
		exchange(t, client, server)
	})
	t.Run("tcp raw", func(t *testing.T) {
		client, server := dialAndAccept(t, &TCP{})
		exchange(t, client, server)
	})
	t.Run("pipe styles", func(t *testing.T) {
		a, b := net.Pipe()
		exchange(t, deflateSender{newFrameConn(a)}, newFrameConn(b))
	})
}
