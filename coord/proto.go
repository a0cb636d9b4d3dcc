package coord

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/wire"
)

// ProtocolVersion is the coordination protocol's version, exchanged in the
// hello handshake; a coordinator rejects workers speaking a different one.
// Version 2 added update compression: the hello advertises codec
// capabilities, the welcome assigns the run's codec spec, and update frames
// may carry an encoded blob instead of raw tensors.
// Version 3 added telemetry shipping: heartbeat payloads and a trailing
// update block may carry a delta metric snapshot plus recent trace events
// (see telemetry.go). A v2 worker is cleanly rejected at the handshake
// with a versioned error message.
const ProtocolVersion = 3

// Message types. The checkpoint file format owns frame types 1..6; the wire
// protocol starts at 16 so a protocol message can never be mistaken for a
// checkpoint frame.
const (
	msgHello     = uint32(16) // worker → coordinator: capability handshake
	msgWelcome   = uint32(17) // coordinator → worker: slot + run assignment
	msgPull      = uint32(18) // worker → coordinator: ready for a round
	msgRound     = uint32(19) // coordinator → worker: round index + global params
	msgUpdate    = uint32(20) // worker → coordinator: trained update + state
	msgAck       = uint32(21) // coordinator → worker: update verdict
	msgHeartbeat = uint32(22) // worker → coordinator: liveness while training
	msgDone      = uint32(23) // coordinator → worker: run complete, disconnect
	msgError     = uint32(24) // coordinator → worker: fatal rejection
)

// Ack statuses.
const (
	// AckOK: the update was accepted and will be folded this round.
	AckOK = "ok"
	// AckLate: the update arrived after its round closed (straggler past the
	// deadline); it was discarded but the worker stays joined.
	AckLate = "late"
	// AckRejected: the update failed validation; the coordinator drops the
	// worker.
	AckRejected = "rejected"
	// AckRetry: the update arrived, but its round closed below the
	// MinWorkers quorum and folded nothing. The worker rewinds to its
	// pre-round optimizer state and retrains the round when it is
	// re-broadcast.
	AckRetry = "retry"
)

// msgName labels a message type in errors and logs.
func msgName(typ uint32) string {
	switch typ {
	case msgHello:
		return "hello"
	case msgWelcome:
		return "welcome"
	case msgPull:
		return "pull"
	case msgRound:
		return "round"
	case msgUpdate:
		return "update"
	case msgAck:
		return "ack"
	case msgHeartbeat:
		return "heartbeat"
	case msgDone:
		return "done"
	case msgError:
		return "error"
	default:
		return fmt.Sprintf("unknown(%d)", typ)
	}
}

// hello is the worker's capability handshake.
type hello struct {
	version     uint32
	name        string
	device      string
	budgetBytes int64
	// aggregators and strategies are the worker's supported aggregation
	// modes and checkpoint strategies; the coordinator rejects a worker that
	// cannot run the fleet's aggregator.
	aggregators []string
	strategies  []string
	// codecs is the worker's supported update-compression codecs (names from
	// compress.AllCodecs); the coordinator rejects a worker lacking a codec
	// the run's compression spec requires.
	codecs []string
}

func encodeHello(h hello) ckpt.Frame {
	var b bytes.Buffer
	wire.PutUint32(&b, h.version)
	wire.PutString(&b, h.name)
	wire.PutString(&b, h.device)
	wire.PutInt64(&b, h.budgetBytes)
	putStrings(&b, h.aggregators)
	putStrings(&b, h.strategies)
	putStrings(&b, h.codecs)
	return ckpt.Frame{Type: msgHello, Payload: b.Bytes()}
}

func parseHello(payload []byte) (hello, error) {
	p := wire.NewReader(payload)
	var h hello
	h.version = p.Uint32("protocol version")
	h.name = p.String("worker name")
	h.device = p.String("device name")
	h.budgetBytes = p.Int64("budget bytes")
	h.aggregators = takeStrings(p, "aggregator")
	h.strategies = takeStrings(p, "strategy")
	h.codecs = takeStrings(p, "codec")
	return h, p.Done()
}

// Assignment is what the coordinator hands a joining worker: its slot in the
// fleet and every run parameter the worker needs to reproduce the in-process
// fleet's local computation exactly.
type Assignment struct {
	// Index is the worker's fleet slot — its shard index and fold position.
	Index int
	// Workers is the fleet size (the shard count).
	Workers int
	// Rounds, LocalEpochs, BatchSize and Samples mirror fleet.Config and the
	// dataset size the run was configured with.
	Rounds      int
	LocalEpochs int
	BatchSize   int
	Samples     int
	// Seed is the run seed, for deterministic dataset/model construction.
	Seed uint64
	// Aggregator is the aggregation mode ("fedavg", "allreduce").
	Aggregator string
	// Optimizer and LR configure the worker's local optimiser.
	Optimizer string
	LR        float64
	// Compression is the run's canonical update-codec spec
	// (compress.Spec.String()); empty means updates cross uncompressed.
	Compression string
	// State is the worker's recovered durable state when it is rejoining a
	// slot it held before (optimizer slots, progress counters); nil on a
	// fresh join.
	State *ckpt.WorkerState
}

func encodeWelcome(a Assignment) ckpt.Frame {
	var b bytes.Buffer
	wire.PutInt64(&b, int64(a.Index))
	wire.PutInt64(&b, int64(a.Workers))
	wire.PutInt64(&b, int64(a.Rounds))
	wire.PutInt64(&b, int64(a.LocalEpochs))
	wire.PutInt64(&b, int64(a.BatchSize))
	wire.PutInt64(&b, int64(a.Samples))
	wire.PutUint64(&b, a.Seed)
	wire.PutString(&b, a.Aggregator)
	wire.PutString(&b, a.Optimizer)
	wire.PutFloat64(&b, a.LR)
	wire.PutString(&b, a.Compression)
	if a.State != nil {
		wire.PutUint32(&b, 1)
		st := ckpt.EncodeWorkerState(a.State)
		wire.PutUint32(&b, uint32(len(st)))
		b.Write(st)
	} else {
		wire.PutUint32(&b, 0)
	}
	return ckpt.Frame{Type: msgWelcome, Payload: b.Bytes()}
}

func parseWelcome(payload []byte) (Assignment, error) {
	p := wire.NewReader(payload)
	var a Assignment
	a.Index = int(p.Int64("index"))
	a.Workers = int(p.Int64("workers"))
	a.Rounds = int(p.Int64("rounds"))
	a.LocalEpochs = int(p.Int64("local epochs"))
	a.BatchSize = int(p.Int64("batch size"))
	a.Samples = int(p.Int64("samples"))
	a.Seed = p.Uint64("seed")
	a.Aggregator = p.String("aggregator")
	a.Optimizer = p.String("optimizer")
	a.LR = p.Float64("learning rate")
	a.Compression = p.String("compression spec")
	if p.Uint32("state flag") != 0 {
		n := p.Uint32("state length")
		st := p.Take(int(n), "worker state")
		if err := p.Err(); err != nil {
			return a, err
		}
		ws, err := ckpt.DecodeWorkerState(st)
		if err != nil {
			return a, fmt.Errorf("coord: welcome worker state: %w", err)
		}
		a.State = ws
	}
	return a, p.Done()
}

// roundMsg is one round directive: the round index and the current global
// parameters (the broadcast half of fleet.Round).
type roundMsg struct {
	round  int
	params []ckpt.NamedTensor
}

// encodeRound sizes the payload exactly from the parameters and encodes
// straight into it. Every round gets a fresh buffer: a straggler's handler may
// still be sending the previous round's.
func encodeRound(m roundMsg) (ckpt.Frame, error) {
	size := int64(8 + 4)
	for _, nt := range m.params {
		if nt.Tensor == nil {
			return ckpt.Frame{}, fmt.Errorf("coord: encoding parameter %q: nil tensor", nt.Name)
		}
		size += 4 + int64(len(nt.Name)) + 4 + nn.EncodedTensorBytes(nt.Tensor)
	}
	b := make([]byte, 0, size)
	b = binary.LittleEndian.AppendUint64(b, uint64(m.round))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.params)))
	for _, nt := range m.params {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(nt.Name)))
		b = append(b, nt.Name...)
		b = binary.LittleEndian.AppendUint32(b, uint32(nn.EncodedTensorBytes(nt.Tensor)))
		b = nn.AppendTensor(b, nt.Tensor)
	}
	return ckpt.Frame{Type: msgRound, Payload: b}, nil
}

// decodeRoundInto decodes a round directive straight into a replica's
// parameters — the download half of fleet.Round's broadcast — and returns the
// round index. The directive must list exactly the replica's parameters, in
// order: the count, then each name, chunk length and tensor header are
// checked against the destination before any of that parameter's values is
// written, so on error the parameters from the offending one on are untouched.
func decodeRoundInto(payload []byte, ps []*nn.Param) (int, error) {
	p := wire.NewReader(payload)
	round := int(p.Int64("round"))
	n := p.Uint32("parameter count")
	if err := p.Err(); err != nil {
		return 0, err
	}
	if int64(n) != int64(len(ps)) {
		return 0, fmt.Errorf("coord: broadcast has %d parameters, model has %d", n, len(ps))
	}
	for k, dst := range ps {
		name := p.String("parameter name")
		chunk := p.Take(int(p.Uint32("parameter length")), "parameter")
		if err := p.Err(); err != nil {
			return 0, err
		}
		if name != dst.Name {
			return 0, fmt.Errorf("coord: broadcast parameter %d is %q, model has %q", k, name, dst.Name)
		}
		if err := nn.DecodeTensorInto(dst.Value, chunk); err != nil {
			return 0, fmt.Errorf("coord: broadcast parameter %q: %w", name, err)
		}
	}
	return round, p.Done()
}

// updateMsg is one worker's round result: the fleet.Update payload (minus
// the worker index, which the coordinator knows from the connection), the
// strategy its budget selected, the local wall-clock, and its captured
// durable state for crash recovery.
type updateMsg struct {
	round    int
	samples  int
	loss     float64
	duration time.Duration
	strategy string
	stats    fleet.Update // execution-stat fields only
	// codec is the canonical compression spec the blob was encoded with;
	// empty means the update ships as raw tensors in vecs. Exactly one of
	// blob/vecs is on the wire.
	// A parsed blob aliases the payload it was parsed from.
	codec string
	blob  []byte
	vecs  []*tensor.Tensor
	state ckpt.WorkerState
	// telem is the worker's final telemetry shipment for the round (nil
	// when shipping is disabled); it rides as a trailing block so the
	// coordinator sees local-train spans the moment the update lands.
	telem *telemetry
}

func encodeUpdate(m updateMsg) (ckpt.Frame, error) {
	var b bytes.Buffer
	wire.PutInt64(&b, int64(m.round))
	wire.PutInt64(&b, int64(m.samples))
	wire.PutFloat64(&b, m.loss)
	wire.PutInt64(&b, int64(m.duration))
	wire.PutString(&b, m.strategy)
	wire.PutInt64(&b, int64(m.stats.ForwardEvals))
	wire.PutInt64(&b, int64(m.stats.BackwardEvals))
	wire.PutInt64(&b, int64(m.stats.PeakStates))
	wire.PutInt64(&b, m.stats.PeakStateBytes)
	wire.PutInt64(&b, m.stats.PeakDiskBytes)
	wire.PutInt64(&b, int64(m.stats.DiskWrites))
	wire.PutInt64(&b, int64(m.stats.DiskReads))
	wire.PutString(&b, m.codec)
	if m.codec != "" {
		wire.PutUint32(&b, uint32(len(m.blob)))
		b.Write(m.blob)
	} else {
		wire.PutUint32(&b, uint32(len(m.vecs)))
		for i, v := range m.vecs {
			if err := putTensor(&b, v); err != nil {
				return ckpt.Frame{}, fmt.Errorf("coord: encoding update tensor %d: %w", i, err)
			}
		}
	}
	st := ckpt.EncodeWorkerState(&m.state)
	wire.PutUint32(&b, uint32(len(st)))
	b.Write(st)
	if m.telem != nil {
		tb := encodeTelemetry(*m.telem)
		wire.PutUint32(&b, 1)
		wire.PutUint32(&b, uint32(len(tb)))
		b.Write(tb)
	} else {
		wire.PutUint32(&b, 0)
	}
	return ckpt.Frame{Type: msgUpdate, Payload: b.Bytes()}, nil
}

func parseUpdate(payload []byte) (updateMsg, error) {
	p := wire.NewReader(payload)
	var m updateMsg
	m.round = int(p.Int64("round"))
	m.samples = int(p.Int64("samples"))
	m.loss = p.Float64("loss")
	m.duration = time.Duration(p.Int64("duration"))
	m.strategy = p.String("strategy")
	m.stats.ForwardEvals = int(p.Int64("forward evals"))
	m.stats.BackwardEvals = int(p.Int64("backward evals"))
	m.stats.PeakStates = int(p.Int64("peak states"))
	m.stats.PeakStateBytes = p.Int64("peak RAM bytes")
	m.stats.PeakDiskBytes = p.Int64("peak disk bytes")
	m.stats.DiskWrites = int(p.Int64("disk writes"))
	m.stats.DiskReads = int(p.Int64("disk reads"))
	m.codec = p.String("update codec")
	if m.codec != "" {
		bn := p.Uint32("blob length")
		m.blob = p.Take(int(bn), "compressed update")
	} else {
		n := p.Uint32("tensor count")
		if p.Err() == nil && int64(n) > maxMessageBytes/8 {
			return m, fmt.Errorf("coord: implausible tensor count %d", n)
		}
		for i := uint32(0); i < n && p.Err() == nil; i++ {
			t, err := takeTensor(p, "update tensor")
			if err != nil {
				return m, err
			}
			m.vecs = append(m.vecs, t)
		}
	}
	sn := p.Uint32("state length")
	st := p.Take(int(sn), "worker state")
	if err := p.Err(); err != nil {
		return m, err
	}
	ws, err := ckpt.DecodeWorkerState(st)
	if err != nil {
		return m, fmt.Errorf("coord: update worker state: %w", err)
	}
	m.state = *ws
	if p.Uint32("telemetry flag") != 0 {
		tn := p.Uint32("telemetry length")
		tb := p.Take(int(tn), "telemetry")
		if err := p.Err(); err != nil {
			return m, err
		}
		tm, err := parseTelemetry(tb)
		if err != nil {
			return m, fmt.Errorf("coord: update telemetry: %w", err)
		}
		m.telem = &tm
	}
	return m, p.Done()
}

type ackMsg struct {
	round  int
	status string
}

func encodeAck(a ackMsg) ckpt.Frame {
	var b bytes.Buffer
	wire.PutInt64(&b, int64(a.round))
	wire.PutString(&b, a.status)
	return ckpt.Frame{Type: msgAck, Payload: b.Bytes()}
}

func parseAck(payload []byte) (ackMsg, error) {
	p := wire.NewReader(payload)
	var a ackMsg
	a.round = int(p.Int64("round"))
	a.status = p.String("status")
	return a, p.Done()
}

func encodeError(msg string) ckpt.Frame {
	var b bytes.Buffer
	wire.PutString(&b, msg)
	return ckpt.Frame{Type: msgError, Payload: b.Bytes()}
}

func parseError(payload []byte) (string, error) {
	p := wire.NewReader(payload)
	msg := p.String("error message")
	return msg, p.Done()
}

// putTensor appends one tensor as a length-prefixed nn.WriteTensor chunk —
// the fp64-exact codec checkpoints use, so parameters and gradients cross
// the wire bit-identical.
func putTensor(b *bytes.Buffer, t *tensor.Tensor) error {
	if t == nil {
		return fmt.Errorf("nil tensor")
	}
	wire.PutUint32(b, uint32(nn.EncodedTensorBytes(t)))
	return nn.WriteTensor(b, t)
}

// takeTensor consumes one length-prefixed tensor chunk.
func takeTensor(p *wire.Reader, what string) (*tensor.Tensor, error) {
	n := p.Uint32(what + " length")
	chunk := p.Take(int(n), what)
	if err := p.Err(); err != nil {
		return nil, err
	}
	t, err := nn.ReadTensor(bytes.NewReader(chunk))
	if err != nil {
		return nil, fmt.Errorf("coord: decoding %s: %w", what, err)
	}
	if nn.EncodedTensorBytes(t) != int64(len(chunk)) {
		return nil, fmt.Errorf("coord: %s chunk has %d leftover bytes", what, int64(len(chunk))-nn.EncodedTensorBytes(t))
	}
	return t, nil
}

func putStrings(b *bytes.Buffer, ss []string) {
	wire.PutUint32(b, uint32(len(ss)))
	for _, s := range ss {
		wire.PutString(b, s)
	}
}

func takeStrings(p *wire.Reader, what string) []string {
	n := p.Uint32(what + " count")
	if p.Err() != nil {
		return nil
	}
	if n > 1<<16 {
		p.Fail(what + " count")
		return nil
	}
	ss := make([]string, 0, n)
	for i := uint32(0); i < n && p.Err() == nil; i++ {
		ss = append(ss, p.String(what))
	}
	return ss
}
