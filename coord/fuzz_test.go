package coord

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/obs"
)

// protoSample is one representative encoded message plus its parser, the
// corpus both the fuzz target and the exhaustive truncation test walk.
type protoSample struct {
	name    string
	typ     uint32
	payload []byte
	parse   func([]byte) error
	// emptyOK marks messages whose zero-byte truncation is legitimately
	// valid: a heartbeat with no payload means "alive, no telemetry".
	emptyOK bool
}

// sampleTelemetry builds a representative telemetry shipment: counter,
// gauge and histogram deltas plus span and instant events.
func sampleTelemetry() telemetry {
	return telemetry{
		round: 3,
		samples: []obs.Sample{
			{Name: "chain_steps_total", Help: "Optimiser steps.", Kind: "counter", Value: 12},
			{Name: "trainer_loss", Help: "Latest loss.", Kind: "gauge", Value: 0.731,
				Labels: []obs.Label{{Key: "device", Value: "waggle"}}},
			{Name: "chain_step_seconds", Help: "Step latency.", Kind: "histogram",
				Value: 0.0625, Count: 12,
				Bounds:  []float64{0.001, 0.01, 0.1},
				Buckets: []int64{2, 9, 12}},
		},
		events: []obs.Event{
			{Name: "local-train", Round: 3, Worker: 1,
				Start: time.Unix(0, 1_700_000_000_000_000_000), Dur: 257 * time.Millisecond},
			{Name: "spill", Round: 3, Worker: 1,
				Start: time.Unix(0, 1_700_000_000_100_000_000), Detail: "budget=2GB"},
		},
	}
}

func protoSamples() []protoSample {
	rng := tensor.NewRNG(17)
	state := &ckpt.WorkerState{
		Index: 2, Name: "w2", Rounds: 7, Samples: 896,
		Opt: ckpt.OptimizerState{
			Name: "momentum", Step: 7,
			Slots: []ckpt.OptSlot{{Param: "fc1.weight", Slot: "velocity", Data: []float64{0.25, -1.5, 3e-9}}},
		},
	}
	helloF := encodeHello(hello{
		version: ProtocolVersion, name: "w0", device: "waggle", budgetBytes: 2_000_000_000,
		aggregators: []string{"fedavg", "allreduce"}, strategies: []string{"storeall", "revolve"},
		codecs: []string{"topk", "int8", "deflate"},
	})
	welcomeFresh := encodeWelcome(Assignment{
		Index: 1, Workers: 3, Rounds: 4, LocalEpochs: 1, BatchSize: 2, Samples: 24,
		Seed: 42, Aggregator: "fedavg", Optimizer: "sgd", LR: 0.05,
	})
	welcomeState := encodeWelcome(Assignment{
		Index: 2, Workers: 3, Rounds: 4, Seed: 42, Aggregator: "fedavg",
		Optimizer: "momentum", LR: 0.05, Compression: "topk:0.25+int8+deflate",
		State: state,
	})
	roundF, err := encodeRound(roundMsg{
		round: 3,
		params: []ckpt.NamedTensor{
			{Name: "fc1.weight", Tensor: randTensor(rng, 8, 4)},
			{Name: "fc1.bias", Tensor: randTensor(rng, 4)},
		},
	})
	if err != nil {
		panic(err)
	}
	updateF, err := encodeUpdate(updateMsg{
		round: 3, samples: 17, loss: 2.1972, duration: 257 * time.Millisecond,
		strategy: "revolve",
		stats: fleet.Update{Usage: chain.Usage{
			ForwardEvals: 40, BackwardEvals: 12, PeakStates: 5,
			PeakStateBytes: 1 << 20, PeakDiskBytes: 1 << 18, DiskWrites: 6, DiskReads: 6,
		}},
		vecs:  []*tensor.Tensor{randTensor(rng, 8, 4), randTensor(rng, 4)},
		state: *state,
	})
	if err != nil {
		panic(err)
	}
	// A compressed update: the codec tag replaces the tensor section with an
	// opaque blob (parseUpdate does not decode it — the serve loop does).
	updateCompressed, err := encodeUpdate(updateMsg{
		round: 2, samples: 9, loss: 1.5, duration: 31 * time.Millisecond,
		strategy: "storeall",
		codec:    "topk:0.25+int8+deflate",
		blob:     []byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x42},
		state:    *state,
	})
	if err != nil {
		panic(err)
	}
	// A v3 update carrying a trailing telemetry shipment.
	telem := sampleTelemetry()
	updateTelemetry, err := encodeUpdate(updateMsg{
		round: 3, samples: 17, loss: 2.0, duration: 200 * time.Millisecond,
		strategy: "revolve",
		vecs:     []*tensor.Tensor{randTensor(rng, 4)},
		state:    *state,
		telem:    &telem,
	})
	if err != nil {
		panic(err)
	}
	parseHB := func(b []byte) error { _, err := parseHeartbeat(b); return err }
	return []protoSample{
		{"hello", msgHello, helloF.Payload,
			func(b []byte) error { _, err := parseHello(b); return err }, false},
		{"welcome-fresh", msgWelcome, welcomeFresh.Payload,
			func(b []byte) error { _, err := parseWelcome(b); return err }, false},
		{"welcome-state", msgWelcome, welcomeState.Payload,
			func(b []byte) error { _, err := parseWelcome(b); return err }, false},
		{"round", msgRound, roundF.Payload,
			func(b []byte) error { _, err := parseRound(b); return err }, false},
		{"update", msgUpdate, updateF.Payload,
			func(b []byte) error { _, err := parseUpdate(b); return err }, false},
		{"update-compressed", msgUpdate, updateCompressed.Payload,
			func(b []byte) error { _, err := parseUpdate(b); return err }, false},
		{"update-telemetry", msgUpdate, updateTelemetry.Payload,
			func(b []byte) error { _, err := parseUpdate(b); return err }, false},
		{"heartbeat-empty", msgHeartbeat, nil, parseHB, true},
		{"heartbeat-telemetry", msgHeartbeat, encodeTelemetry(sampleTelemetry()), parseHB, true},
		{"ack", msgAck, encodeAck(ackMsg{round: 6, status: AckOK}).Payload,
			func(b []byte) error { _, err := parseAck(b); return err }, false},
		{"error", msgError, encodeError("fleet full").Payload,
			func(b []byte) error { _, err := parseError(b); return err }, false},
	}
}

// FuzzDecodeMessage drives every wire-message parser with arbitrary bytes,
// mirroring ckpt's FuzzReadCheckpoint: no panic, no absurd allocation, and
// every accepted input must survive a re-encode/re-parse round trip — for
// the fixed-layout messages, bit-identically.
func FuzzDecodeMessage(f *testing.F) {
	for _, s := range protoSamples() {
		f.Add(s.typ, s.payload)
	}
	f.Add(uint32(99), []byte{1, 2, 3})
	f.Add(msgUpdate, []byte{})
	f.Fuzz(func(t *testing.T, typ uint32, payload []byte) {
		switch typ {
		case msgHello:
			h, err := parseHello(payload)
			if err != nil {
				return
			}
			if re := encodeHello(h); !bytes.Equal(re.Payload, payload) {
				t.Fatalf("accepted hello is not canonical: %x reencodes to %x", payload, re.Payload)
			}
		case msgWelcome:
			a, err := parseWelcome(payload)
			if err != nil {
				return
			}
			a2, err := parseWelcome(encodeWelcome(a).Payload)
			if err != nil {
				t.Fatalf("accepted welcome does not re-parse: %v", err)
			}
			if a2.Index != a.Index || a2.Seed != a.Seed || a2.Aggregator != a.Aggregator ||
				(a2.State == nil) != (a.State == nil) {
				t.Fatalf("welcome round trip changed the assignment: %+v vs %+v", a2, a)
			}
		case msgRound:
			m, err := parseRound(payload)
			if err != nil {
				return
			}
			fr, err := encodeRound(m)
			if err != nil {
				t.Fatalf("accepted round does not re-encode: %v", err)
			}
			m2, err := parseRound(fr.Payload)
			if err != nil {
				t.Fatalf("accepted round does not re-parse: %v", err)
			}
			if m2.round != m.round || len(m2.params) != len(m.params) {
				t.Fatalf("round message round trip changed: %+v vs %+v", m2, m)
			}
		case msgUpdate:
			m, err := parseUpdate(payload)
			if err != nil {
				return
			}
			fr, err := encodeUpdate(m)
			if err != nil {
				t.Fatalf("accepted update does not re-encode: %v", err)
			}
			m2, err := parseUpdate(fr.Payload)
			if err != nil {
				t.Fatalf("accepted update does not re-parse: %v", err)
			}
			if m2.round != m.round || m2.samples != m.samples || len(m2.vecs) != len(m.vecs) ||
				m2.codec != m.codec || !bytes.Equal(m2.blob, m.blob) {
				t.Fatalf("update round trip changed: %+v vs %+v", m2, m)
			}
		case msgAck:
			a, err := parseAck(payload)
			if err != nil {
				return
			}
			if re := encodeAck(a); !bytes.Equal(re.Payload, payload) {
				t.Fatalf("accepted ack is not canonical")
			}
		case msgHeartbeat:
			tm, err := parseHeartbeat(payload)
			if err != nil {
				return
			}
			if tm == nil {
				if len(payload) != 0 {
					t.Fatalf("non-empty heartbeat parsed to no telemetry")
				}
				return
			}
			if re := encodeTelemetry(*tm); !bytes.Equal(re, payload) {
				t.Fatalf("accepted heartbeat telemetry is not canonical: %x reencodes to %x", payload, re)
			}
		case msgError:
			msg, err := parseError(payload)
			if err != nil {
				return
			}
			if re := encodeError(msg); !bytes.Equal(re.Payload, payload) {
				t.Fatalf("accepted error message is not canonical")
			}
		}
	})
}

// TestTruncatedAtEveryBoundary cuts every message type at every byte offset
// — which covers every field boundary and boundary±1 — and additionally
// appends one trailing byte. Every mutation must be rejected: the parsers
// consume their payloads exactly, so there is no prefix of a valid message
// that is itself a valid message, and no slack for trailing garbage.
func TestTruncatedAtEveryBoundary(t *testing.T) {
	for _, s := range protoSamples() {
		if err := s.parse(s.payload); err != nil {
			t.Fatalf("%s: intact payload rejected: %v", s.name, err)
		}
		for cut := 0; cut < len(s.payload); cut++ {
			if cut == 0 && s.emptyOK {
				// A zero-byte heartbeat is a legitimate message ("alive,
				// no telemetry"), not a truncation.
				continue
			}
			if err := s.parse(s.payload[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d of %d bytes accepted", s.name, cut, len(s.payload))
			}
		}
		extra := append(append([]byte{}, s.payload...), 0x00)
		if err := s.parse(extra); err == nil {
			t.Fatalf("%s: trailing byte accepted", s.name)
		}
	}
}

// TestWireFrameTruncatedAndOversized covers the framing layer under the
// parsers: a frame cut anywhere — header or payload — must fail the reader
// with ckpt.ErrCorrupt, and a header declaring lengths beyond the
// connection's message bound must be rejected before any payload is read.
func TestWireFrameTruncatedAndOversized(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("the quick brown fox jumps over the lazy dog")
	if _, err := ckpt.WriteFrame(&buf, ckpt.Frame{Type: msgUpdate, Payload: payload}, ckpt.StyleRaw); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()

	if f, _, err := ckpt.NewFrameReader(bytes.NewReader(whole), maxMessageBytes).Next(); err != nil {
		t.Fatalf("intact frame rejected: %v", err)
	} else if f.Type != msgUpdate || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("intact frame decoded wrong")
	}

	for cut := 0; cut < len(whole); cut++ {
		_, _, err := ckpt.NewFrameReader(bytes.NewReader(whole[:cut]), maxMessageBytes).Next()
		if !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("frame truncated to %d of %d bytes: got %v, want ErrCorrupt", cut, len(whole), err)
		}
	}

	// Oversized declarations: encoded length, then raw length, patched past
	// the bound. Both must be rejected as corrupt without reading further.
	for _, field := range []int{8, 16} {
		huge := append([]byte{}, whole...)
		for i := 0; i < 8; i++ {
			huge[field+i] = 0xff
		}
		_, _, err := ckpt.NewFrameReader(bytes.NewReader(huge), maxMessageBytes).Next()
		if !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("oversized length at offset %d: got %v, want ErrCorrupt", field, err)
		}
	}
}
