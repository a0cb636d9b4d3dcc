package coord

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/compress"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/obs"
)

// logLines is a Config.Logf that keeps every formatted line.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logLines) matching(sub string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			out = append(out, line)
		}
	}
	return out
}

// TestLivenessStartsAtTheBroadcast: w0 joins a second before w1 and spends
// that second parked on its pull, far past the 400 ms limit; then it holds
// round 0's update 200 ms after training. w1 takes twice the limit to build
// its dataset while round 0 waits on its pull. None of this is silence: the
// first wait is on the coordinator, the limit for the second starts at the
// round directive, and the third is covered by the heartbeats a worker sends
// from its welcome to its first pull. No worker may be declared dead, and
// round 0 must fold at its first attempt.
func TestLivenessStartsAtTheBroadcast(t *testing.T) {
	const limit = 400 * time.Millisecond
	var log logLines
	w0Joined := make(chan struct{})
	var once sync.Once
	c, err := New(Config{
		Workers: 2, Rounds: 2, Samples: eqSamples, Seed: 9, Liveness: limit,
		Logf: func(format string, args ...any) {
			if strings.Contains(format, "as slot") {
				once.Do(func() { close(w0Joined) })
			}
			log.logf(format, args...)
		},
	}, testModel(9))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	tr := NewLoopback()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	run := func(i int, opts WorkerOptions) {
		opts.Retries = -1 // a lost connection fails the worker instead of hiding behind a reconnect
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = RunWorker(tr, addr, opts)
		}()
	}
	run(0, workerOptions("w0", 9, eqSamples, func(round int) error {
		if round == 0 {
			time.Sleep(limit / 2)
		}
		return nil
	}))
	<-w0Joined
	time.Sleep(time.Second)
	slow := workerOptions("w1", 9, eqSamples, nil)
	dataset := slow.Dataset
	slow.Dataset = func(a Assignment) (trainer.Dataset, error) {
		time.Sleep(2 * limit)
		return dataset(a)
	}
	run(1, slow)

	rep, err := c.Wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	if deaths := log.matching(" left: "); len(deaths) != 0 {
		t.Fatalf("live workers declared dead: %q", deaths)
	}
	if r0 := rep.Rounds[0]; r0.Retries != 0 || r0.Dropouts != 0 || r0.Participants != 2 {
		t.Fatalf("round 0: %d retries, %d dropouts, %d participants; want 0, 0 and 2",
			r0.Retries, r0.Dropouts, r0.Participants)
	}
}

// TestSilentWorkerIsClosed: a raw client takes its round directive and then
// sends nothing, neither heartbeat nor update. The coordinator must close its
// connection within the liveness limit and fold the round with the other two
// workers.
func TestSilentWorkerIsClosed(t *testing.T) {
	const limit = 300 * time.Millisecond
	var log logLines
	tr := NewLoopback()
	c, err := New(Config{
		Workers: 3, Rounds: 1, Samples: eqSamples, Seed: 5, Liveness: limit,
		RoundRetries: -1, Logf: log.logf,
	}, testModel(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	rc := dialRaw(t, tr, addr, "mute", compress.AllCodecs)
	defer rc.conn.Close()
	if _, err := expectWelcome(rc.recv()); err != nil {
		t.Fatal(err)
	}
	if err := rc.conn.Send(ckpt.Frame{Type: msgPull}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		opts := workerOptions(fmt.Sprintf("w%d", i), 5, eqSamples, nil)
		opts.Retries = -1
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = RunWorker(tr, addr, opts)
		}()
	}

	if f := rc.recv(); f.Type != msgRound {
		t.Fatalf("got %s message, want round", msgName(f.Type))
	}
	start := time.Now()
	cut := make(chan error, 1)
	go func() {
		_, err := rc.conn.Recv()
		cut <- err
	}()
	select {
	case err := <-cut:
		if err == nil {
			t.Fatal("silent worker received a frame instead of being cut off")
		}
	case <-time.After(limit + time.Second):
		t.Fatalf("silent worker still connected %v after its round directive, limit %v", time.Since(start), limit)
	}
	if took := time.Since(start); took < limit/2 {
		t.Fatalf("silent worker cut off after %v, before the %v limit", took, limit)
	}

	rep, err := c.Wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("worker %d: %v", i, werr)
		}
	}
	if r0 := rep.Rounds[0]; r0.Participants != 2 || r0.Dropouts != 1 {
		t.Fatalf("round 0: %d participants, %d dropouts; want 2 and 1", r0.Participants, r0.Dropouts)
	}
	if got := log.matching("worker mute (slot 0) left: silent for"); len(got) != 1 {
		t.Fatalf("want one liveness death of the silent worker, log has %q", log.matching(" left: "))
	}
}

// TestRejoinReplacesStaleConnection: a connection whose peer went silent
// without closing still holds its slot when the worker restarts under the same
// name. The new hello must take the slot at the first dial, the old
// connection must be closed, and the takeover must count as a rejoin.
func TestRejoinReplacesStaleConnection(t *testing.T) {
	if obs.Default() != nil {
		t.Fatal("metrics registry installed at test entry")
	}
	reg := obs.NewRegistry()
	obs.SetDefault(reg)
	defer obs.SetDefault(nil)
	rejoined := func() float64 {
		for _, s := range reg.Snapshot() {
			if s.Name == "coord_workers_rejoined_total" {
				return s.Value
			}
		}
		return 0
	}

	tr := NewLoopback()
	// The default 30 s limit: nothing reaps the stale connection in this test.
	c, err := New(Config{Workers: 1, Rounds: 1, Samples: 8, Seed: 3}, testModel(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	stale := dialRaw(t, tr, addr, "w0", compress.AllCodecs)
	defer stale.conn.Close()
	if _, err := expectWelcome(stale.recv()); err != nil {
		t.Fatal(err)
	}
	before := rejoined()

	opts := workerOptions("w0", 3, 8, nil)
	opts.Retries = -1 // one dial
	res, err := RunWorker(tr, addr, opts)
	if err != nil {
		t.Fatalf("restarted worker: %v", err)
	}
	if res.Rounds != 1 {
		t.Fatalf("restarted worker contributed %d rounds, want 1", res.Rounds)
	}
	if _, err := stale.conn.Recv(); err == nil {
		t.Fatal("stale connection still open after the rejoin took its slot")
	}
	rep, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := rejoined() - before; got != 1 {
		t.Fatalf("coord_workers_rejoined_total rose by %v, want 1", got)
	}
	if r0 := rep.Rounds[0]; r0.Flaps != 1 || r0.Participants != 1 {
		t.Fatalf("round 0: %d flaps, %d participants; want 1 and 1", r0.Flaps, r0.Participants)
	}
}

// TestTakeoverUnstagesUpdate: a rejoin takes a slot whose old connection has
// an update staged for the round and waits for its ack. The rejoin restores
// the slot's state from before the round, so the old update must not be
// folded: the round retries below quorum, and the run ends bit-identical to
// one that never saw that update.
func TestTakeoverUnstagesUpdate(t *testing.T) {
	const seed, rounds = uint64(7), 2
	tr := NewLoopback()
	rejoined := make(chan struct{})
	var once sync.Once
	c, err := New(Config{
		Workers: 2, Rounds: rounds, Samples: eqSamples, Seed: seed,
		Aggregator: "fedavg", Optimizer: "momentum", LR: 0.05,
		Logf: func(format string, args ...any) {
			if strings.Contains(fmt.Sprintf(format, args...), "worker victim (slot 0) left: replaced") {
				once.Do(func() { close(rejoined) })
			}
		},
	}, testModel(seed))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr, err := c.Start(tr, "")
	if err != nil {
		t.Fatal(err)
	}
	old := dialRaw(t, tr, addr, "victim", compress.AllCodecs)
	defer old.conn.Close()
	a, err := expectWelcome(old.recv())
	if err != nil {
		t.Fatal(err)
	}
	// w0 holds round 0's upload until the takeover, so the old connection's
	// update is still staged, not folded, when the rejoin arrives.
	var wg sync.WaitGroup
	var w0Err error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, w0Err = RunWorker(tr, addr, workerOptions("w0", seed, eqSamples, func(round int) error {
			if round == 0 {
				select {
				case <-rejoined:
				case <-time.After(10 * time.Second):
					return fmt.Errorf("timed out waiting for the victim's rejoin")
				}
			}
			return nil
		}))
	}()
	if err := old.conn.Send(ckpt.Frame{Type: msgPull}); err != nil {
		t.Fatal(err)
	}
	m, err := parseRound(old.recv().Payload)
	if err != nil {
		t.Fatal(err)
	}
	var vecs []*tensor.Tensor
	for _, nt := range m.params {
		vecs = append(vecs, nt.Tensor.Clone())
	}
	uf, err := encodeUpdate(updateMsg{
		round: m.round, samples: eqSamples / a.Workers, loss: 0.1, vecs: vecs,
		state: ckpt.WorkerState{Index: a.Index, Name: "victim", Opt: ckpt.OptimizerState{Name: "momentum"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := old.conn.Send(uf); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the run loop stage it

	opts := workerOptions("victim", seed, eqSamples, nil)
	opts.Retries = -1
	if _, err := RunWorker(tr, addr, opts); err != nil {
		t.Fatalf("rejoined victim: %v", err)
	}
	rep, err := c.Wait()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if w0Err != nil {
		t.Fatalf("w0: %v", w0Err)
	}
	if r0 := rep.Rounds[0]; r0.Retries != 1 || r0.Dropouts != 1 || r0.Flaps != 1 {
		t.Fatalf("round 0: %d retries, %d dropouts, %d flaps; want 1 each", r0.Retries, r0.Dropouts, r0.Flaps)
	}

	want := undisturbedWeights(t, []string{"victim", "w0"}, rounds, seed, "")
	assertBitEqual(t, globalWeights(c), want, "takeover with a staged update vs undisturbed")
}
