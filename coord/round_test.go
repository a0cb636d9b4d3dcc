package coord

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/wire"
)

// parseRound is the round-directive decoder the worker used before it decoded
// into its replica in place: it builds a second model from the payload. It is
// kept here as the reference decodeRoundInto is compared against, and for
// tests that play a worker without owning a replica.
func parseRound(payload []byte) (roundMsg, error) {
	p := wire.NewReader(payload)
	var m roundMsg
	m.round = int(p.Int64("round"))
	n := p.Uint32("parameter count")
	if p.Err() == nil && int64(n) > maxMessageBytes/8 {
		return m, fmt.Errorf("coord: implausible parameter count %d", n)
	}
	for i := uint32(0); i < n && p.Err() == nil; i++ {
		name := p.String("parameter name")
		t, err := takeTensor(p, "parameter")
		if err != nil {
			return m, err
		}
		m.params = append(m.params, ckpt.NamedTensor{Name: name, Tensor: t})
	}
	return m, p.Done()
}

// replicaOf returns parameters with m's names and shapes, every value set to
// fill.
func replicaOf(m roundMsg, fill float64) []*nn.Param {
	ps := make([]*nn.Param, len(m.params))
	for i, nt := range m.params {
		v := tensor.New(nt.Tensor.Shape()...)
		for j := range v.Data() {
			v.Data()[j] = fill
		}
		ps[i] = nn.NewParam(nt.Name, v)
	}
	return ps
}

func sampleRound() roundMsg {
	rng := tensor.NewRNG(5)
	w := randTensor(rng, 8, 4)
	w.Data()[3] = math.Copysign(0, -1)
	return roundMsg{round: 7, params: []ckpt.NamedTensor{
		{Name: "fc1.weight", Tensor: w},
		{Name: "fc1.bias", Tensor: randTensor(rng, 4)},
		{Name: "fc2.weight", Tensor: randTensor(rng, 4, 2, 3)},
	}}
}

// TestDecodeRoundIntoMatchesReference: what decodeRoundInto writes into a
// replica is, bit for bit, the model parseRound builds from the same payload.
func TestDecodeRoundIntoMatchesReference(t *testing.T) {
	m := sampleRound()
	f, err := encodeRound(m)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := parseRound(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	ps := replicaOf(m, math.NaN())
	round, err := decodeRoundInto(f.Payload, ps)
	if err != nil {
		t.Fatal(err)
	}
	if round != ref.round {
		t.Fatalf("round %d, reference %d", round, ref.round)
	}
	for i, p := range ps {
		for j, v := range p.Value.Data() {
			if math.Float64bits(v) != math.Float64bits(ref.params[i].Tensor.Data()[j]) {
				t.Fatalf("parameter %q element %d: %v, reference %v", p.Name, j, v, ref.params[i].Tensor.Data()[j])
			}
		}
	}
}

// TestDecodeRoundIntoRejects: a directive that does not describe the replica
// exactly is refused before the offending parameter — or any after it — is
// written.
func TestDecodeRoundIntoRejects(t *testing.T) {
	m := sampleRound()
	encode := func(m roundMsg) []byte {
		f, err := encodeRound(m)
		if err != nil {
			t.Fatal(err)
		}
		return f.Payload
	}
	// Offsets into the payload of parameter 1 ("fc1.bias"): its chunk length
	// field and tensor header follow parameter 0 and its own name.
	p1 := 8 + 4 + (4 + len("fc1.weight") + 4 + int(nn.EncodedTensorBytes(m.params[0].Tensor)))
	p1len := p1 + 4 + len("fc1.bias")
	p1chunk := p1len + 4
	patch := func(off int, b ...byte) []byte {
		out := append([]byte(nil), encode(m)...)
		copy(out[off:], b)
		return out
	}
	reshaped := func(shape ...int) []byte {
		alt := sampleRound()
		alt.params[1].Tensor = tensor.New(shape...)
		return encode(alt)
	}
	renamed := sampleRound()
	renamed.params[1].Name = "fc1.beta"
	short := sampleRound()
	short.params = short.params[:2]
	cases := []struct {
		name      string
		payload   []byte
		untouched int // parameters from this index on must not have been written
		want      string
	}{
		{"wrong count", encode(short), 0, "has 2 parameters, model has 3"},
		{"wrong name", encode(renamed), 1, `is "fc1.beta", model has "fc1.bias"`},
		{"wrong magic", patch(p1chunk, 0xff), 1, "bad tensor magic"},
		{"wrong rank", reshaped(2, 2), 1, "tensor rank 2, want 1"},
		{"wrong dimension", reshaped(5), 1, "tensor dimension 0 is 5"},
		{"short chunk", patch(p1len, 32), 1, "tensor chunk is 32 bytes"},
		{"long chunk", patch(p1len, 64), 1, "tensor chunk is 64 bytes"},
		{"truncated", encode(m)[:p1chunk+20], 1, "truncated payload"},
		{"trailing byte", append(encode(m), 0), 3, "leftover"},
	}
	for _, tc := range cases {
		ps := replicaOf(m, 42)
		_, err := decodeRoundInto(tc.payload, ps)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one containing %q", tc.name, err, tc.want)
			continue
		}
		for _, p := range ps[tc.untouched:] {
			for j, v := range p.Value.Data() {
				if v != 42 {
					t.Errorf("%s: parameter %q element %d was written (%v) before the directive was refused", tc.name, p.Name, j, v)
					break
				}
			}
		}
	}
}

// TestWorkerSessionRefusesMismatchedBroadcast: a round directive that does not
// fit the worker's replica ends the session with an error — not a reconnect.
func TestWorkerSessionRefusesMismatchedBroadcast(t *testing.T) {
	tr := NewLoopback()
	l, err := tr.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() {
		served <- func() error {
			conn, err := l.Accept()
			if err != nil {
				return err
			}
			defer conn.Close()
			if _, err := conn.Recv(); err != nil { // hello
				return err
			}
			err = conn.Send(encodeWelcome(Assignment{
				Workers: 1, Rounds: 1, LocalEpochs: 1, Samples: eqSamples, Seed: 1,
				Aggregator: "fedavg", Optimizer: "sgd", LR: 0.05,
			}))
			if err != nil {
				return err
			}
			if _, err := conn.Recv(); err != nil { // pull
				return err
			}
			f, err := encodeRound(sampleRound()) // not the demo model's parameters
			if err != nil {
				return err
			}
			if err := conn.Send(f); err != nil {
				return err
			}
			conn.Recv() // until the worker hangs up
			return nil
		}()
	}()
	_, err = RunWorker(tr, l.Addr(), workerOptions("w0", 1, eqSamples, nil))
	if err == nil || isTransient(err) || !strings.Contains(err.Error(), "coord: broadcast has 3 parameters") {
		t.Fatalf("worker returned %v, want a fatal broadcast mismatch", err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestEncodeRoundMatchesStreamedTensors pins the exact-size encoder to the
// layout the streaming one produced: wire fields around nn.WriteTensor chunks.
func TestEncodeRoundMatchesStreamedTensors(t *testing.T) {
	m := sampleRound()
	var b bytes.Buffer
	wire.PutInt64(&b, int64(m.round))
	wire.PutUint32(&b, uint32(len(m.params)))
	for _, nt := range m.params {
		wire.PutString(&b, nt.Name)
		if err := putTensor(&b, nt.Tensor); err != nil {
			t.Fatal(err)
		}
	}
	f, err := encodeRound(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f.Payload, b.Bytes()) {
		t.Fatal("encodeRound's payload differs from the wire fields and WriteTensor chunks it replaces")
	}
	if cap(f.Payload) != len(f.Payload) {
		t.Fatalf("payload sized %d for %d bytes", cap(f.Payload), len(f.Payload))
	}
}

// FuzzDecodeRoundInto drives the in-place decoder with arbitrary payloads
// against a fixed replica: it must never panic, and it must accept exactly
// the payloads the reference decoder turns into that replica's parameter
// list — writing the same bits.
func FuzzDecodeRoundInto(f *testing.F) {
	m := sampleRound()
	whole, err := encodeRound(m)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole.Payload)
	f.Add(whole.Payload[:len(whole.Payload)/2])
	for _, s := range protoSamples() {
		if s.typ == msgRound {
			f.Add(s.payload)
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		ps := replicaOf(m, 42)
		_, err := decodeRoundInto(payload, ps)
		ref, refErr := parseRound(payload)
		fits := refErr == nil && len(ref.params) == len(ps)
		for i := 0; fits && i < len(ps); i++ {
			fits = ref.params[i].Name == ps[i].Name && ref.params[i].Tensor.SameShape(ps[i].Value)
		}
		if (err == nil) != fits {
			t.Fatalf("decodeRoundInto: %v; the reference decoder: %v, fits the replica: %v", err, refErr, fits)
		}
		for i := 0; fits && i < len(ps); i++ {
			for j, v := range ps[i].Value.Data() {
				if math.Float64bits(v) != math.Float64bits(ref.params[i].Tensor.Data()[j]) {
					t.Fatalf("parameter %d element %d: %v, reference %v", i, j, v, ref.params[i].Tensor.Data()[j])
				}
			}
		}
	})
}
