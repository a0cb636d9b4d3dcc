package coord

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
)

// TestChaosSoak is the fault-tolerance acceptance test: a 3-worker fleet
// trains 6 rounds while the chaos transport refuses dials, drops connections
// mid-round, corrupts frames in flight and delays everything — and the
// coordinator itself is killed after round 2 and restarted from its durable
// state. The run must complete with global weights byte-identical to a
// fault-free in-process fleet.Run: every injected fault is either retried
// away (quorum) or recovered (reconnect, resume), and corruption never
// reaches a fold.
func TestChaosSoak(t *testing.T) {
	const (
		soakWorkers = 3
		soakRounds  = 6
		soakSamples = 24
		soakSeed    = uint64(11)
	)

	// Fault-free reference: the single-process engine, untouched by chaos.
	opt := func() trainer.Optimizer {
		o, err := trainer.NewOptimizer("momentum", 0.05)
		if err != nil {
			panic(err)
		}
		return o
	}
	agg, err := fleet.NewAggregator("fedavg", opt())
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]fleet.WorkerSpec, soakWorkers)
	for i := range specs {
		specs[i].Name = fmt.Sprintf("w%d", i)
	}
	ref, err := fleet.New(fleet.Config{
		Workers: specs, Rounds: soakRounds, Seed: soakSeed,
		Aggregator: agg, Optimizer: opt,
	}, testModel(soakSeed), testDataset(soakSamples, soakSeed))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	var want []*tensor.Tensor
	for _, p := range ref.Global().Params() {
		want = append(want, p.Value.Clone())
	}

	chaos := &Chaos{
		Inner:      NewLoopback(),
		Seed:       20260808,
		DialRefuse: 0.1,
		Drop:       0.02,
		Corrupt:    0.05,
		LatencyMax: 2 * time.Millisecond,
	}
	const addr = "soak-coord"
	stateDir := t.TempDir()
	cfg := Config{
		Workers: soakWorkers, Rounds: soakRounds, Samples: soakSamples,
		Seed: soakSeed, Aggregator: "fedavg", Optimizer: "momentum", LR: 0.05,
		RoundRetries: 100, JoinTimeout: 20 * time.Second,
		StateDir: stateDir,
		Logf:     t.Logf,
	}

	// First coordinator life: killed right after round 2's fold and
	// checkpoint — the crash the durable state exists for.
	var c1 *Coordinator
	cfg1 := cfg
	cfg1.afterRound = func(r int) {
		if r == 2 {
			c1.Close()
		}
	}
	c1, err = New(cfg1, testModel(soakSeed))
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.Start(chaos, addr); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	werrs := make([]error, soakWorkers)
	for i := 0; i < soakWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wo := workerOptions(fmt.Sprintf("w%d", i), soakSeed, soakSamples, nil)
			wo.Retries = 100
			wo.BackoffMin = 2 * time.Millisecond
			wo.BackoffMax = 50 * time.Millisecond
			_, werrs[i] = RunWorker(chaos, addr, wo)
		}(i)
	}

	if _, err := c1.Wait(); !errors.Is(err, ErrClosed) {
		t.Fatalf("killed coordinator returned %v, want ErrClosed", err)
	}

	// Second life: same state dir, same address. The workers' reconnect
	// loops have been dialing the whole time; the resumed coordinator
	// re-seats their slots and the run continues at round 3.
	c2, err := New(cfg, testModel(soakSeed))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if got := c2.StartRound(); got != 3 {
		t.Fatalf("restarted coordinator resumes at round %d, want 3", got)
	}
	if _, err := c2.Start(chaos, addr); err != nil {
		t.Fatal(err)
	}
	rep, err := c2.Wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Rounds); got != soakRounds-3 {
		t.Fatalf("resumed run reports %d rounds, want %d", got, soakRounds-3)
	}
	for i, werr := range werrs {
		// A worker whose final ack or done frame was eaten by chaos after
		// the run completed may exhaust its dial budget against the gone
		// coordinator; that bounded give-up is correct behaviour. Anything
		// else — a rejection, a poisoned state, a protocol error — fails.
		if werr != nil && !strings.Contains(werr.Error(), "giving up after") {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}

	if chaos.Corrupted() == 0 {
		t.Fatalf("chaos injected no frame corruption; the soak exercised nothing")
	}

	var got []*tensor.Tensor
	for _, p := range c2.Global().Params() {
		got = append(got, p.Value)
	}
	assertBitEqual(t, got, want, "chaos soak vs fault-free run")
}

// TestChaosCorruptionSurfacesTyped pins the chaos invariant directly: every
// frame the chaos layer mangles must be rejected by the receiving codec as
// ckpt.ErrCorrupt — never delivered as a plausible message — across payload
// sizes including the empty frame (where the flip lands in the CRC field).
func TestChaosCorruptionSurfacesTyped(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	chaos := &Chaos{Seed: 9, Corrupt: 1}
	sender := chaos.wrap(newFrameConn(a))
	receiver := newFrameConn(b)

	payloads := [][]byte{nil, {0x42}, make([]byte, 1000), make([]byte, 65537)}
	for i, p := range payloads {
		sendErr := make(chan error, 1)
		go func() { sendErr <- sender.Send(ckpt.Frame{Type: msgUpdate, Payload: p}) }()
		_, err := receiver.Recv()
		if !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("payload %d (%d bytes): corrupted frame surfaced as %v, want ckpt.ErrCorrupt", i, len(p), err)
		}
		if err := <-sendErr; err != nil {
			t.Fatalf("payload %d: sender failed: %v", i, err)
		}
	}
	if got := chaos.Corrupted(); got != int64(len(payloads)) {
		t.Fatalf("chaos counted %d corrupted frames, want %d", got, len(payloads))
	}
}

// TestChaosPartition pins that a partition window refuses new dials and
// fails established connections, and that traffic flows again once it lifts.
func TestChaosPartition(t *testing.T) {
	chaos := &Chaos{Inner: NewLoopback(), Seed: 4}
	l, err := chaos.Listen("part")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				for {
					if _, err := c.Recv(); err != nil {
						return
					}
				}
			}()
		}
	}()

	conn, err := chaos.Dial("part")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(ckpt.Frame{Type: msgHeartbeat}); err != nil {
		t.Fatalf("send before partition: %v", err)
	}

	chaos.PartitionFor(time.Hour)
	if _, err := chaos.Dial("part"); err == nil {
		t.Fatalf("dial succeeded during partition")
	}
	if err := conn.Send(ckpt.Frame{Type: msgHeartbeat}); err == nil {
		t.Fatalf("send succeeded during partition")
	}

	chaos.PartitionFor(0) // lift it
	conn2, err := chaos.Dial("part")
	if err != nil {
		t.Fatalf("dial after partition lifted: %v", err)
	}
	defer conn2.Close()
	if err := conn2.Send(ckpt.Frame{Type: msgHeartbeat}); err != nil {
		t.Fatalf("send after partition lifted: %v", err)
	}
}

// TestHandshakeDeadline pins the silent dialer: a connection that never
// sends its hello is closed by the coordinator's liveness limit instead of
// pinning an accept goroutine, and the fleet still serves real workers
// afterwards.
func TestHandshakeDeadline(t *testing.T) {
	tr := NewLoopback()
	c, err := New(Config{
		Workers: 1, Rounds: 1, Samples: 8, Seed: 3,
		Liveness: 200 * time.Millisecond,
	}, testModel(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}

	silent, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	severed := make(chan error, 1)
	go func() {
		_, err := silent.Recv()
		severed <- err
	}()
	select {
	case err := <-severed:
		if err == nil {
			t.Fatalf("silent dialer received a frame instead of being cut off")
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("silent dialer still connected after the handshake deadline")
	}

	// The accept loop is free; a real worker joins and the run completes.
	res, err := RunWorker(tr, addr, workerOptions("w0", 3, 8, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 {
		t.Fatalf("worker contributed %d rounds, want 1", res.Rounds)
	}
}
