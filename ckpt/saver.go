package ckpt

import (
	"runtime"

	"github.com/edgeml/edgetrain/obs"
)

// Saver writes checkpoints into a Dir from one background goroutine, so the
// loop that produces the sessions — a trainer's step loop, a coordinator's
// round loop — pays neither for the flash I/O nor for a second copy of the
// model: a session may view the loop's live tensors, and the loop calls Wait
// right before it next writes them. It is the one background writer of the
// repository; the write is the unchanged Dir.Save, fsync included.
//
// At most one session is in the saver at a time: Submit first joins the
// write in flight. The first write error is sticky — it comes back from
// every later Submit, Wait and Close, and the saver accepts no further
// sessions — so a loop that cannot persist its state fails at its next save
// point instead of running on without durability. Load keeps returning the
// last checkpoint that was fully written.
//
// While a Saver is open it owns its Dir: the opener must not call Save on
// that Dir, and a Load through it is ordered with the writes only after Wait
// or Close has returned. A second Dir on the same path, opened at any time,
// may Load at any time and sees the newest checkpoint fully written. Submit,
// Wait and Close are for the one goroutine that opened the Saver.
type Saver struct {
	dir  *Dir
	lane int

	jobs    chan saveJob  // unbuffered: the writer is idle at the receive or writing
	started chan struct{} // unbuffered: the writer has taken a job and opened its span
	results chan error    // outcome of the write in flight, one per job
	exited  chan struct{}

	// Owner-side state: only the goroutine calling Submit/Wait/Close reads
	// or writes these.
	pending bool  // a submitted write has not been joined
	closed  bool  // Close has run
	err     error // first write error
}

type saveJob struct {
	s     *Session
	saved func(name string)
}

// NewSaver starts the background writer for d. The saver files its
// checkpoint-save spans under the trace lane (obs worker slot) the caller
// names: the coordinator's own lane for coordinator state, a lane beside the
// step loop's for a trainer. Close must be called to stop the goroutine.
func NewSaver(d *Dir, lane int) *Saver {
	s := &Saver{
		dir:     d,
		lane:    lane,
		jobs:    make(chan saveJob),
		started: make(chan struct{}),
		results: make(chan error, 1),
		exited:  make(chan struct{}),
	}
	// The writer: one Dir.Save per submitted session, in order, until Close
	// closes the job channel.
	go func() {
		defer close(s.exited)
		for job := range s.jobs {
			// A session's Round is the NEXT round to run, so the span is
			// filed under the round whose state it persists (-1 for a
			// trainer session, which has no rounds).
			sp := obs.DefaultTracer().Span("checkpoint-save", job.s.Round-1, s.lane)
			// Submit waits for this: the write has begun before the
			// producer moves on. Then the producer goes first — it is the
			// loop the save must not hold up — and the writer carries on
			// from the scheduler's global queue, on whichever processor
			// looks there next: an idle one is woken for it, a spinning
			// kernel helper (internal/parallel) yields to it.
			s.started <- struct{}{}
			runtime.Gosched()
			name, err := s.dir.Save(job.s)
			sp.EndDetail(name)
			if err == nil && job.saved != nil {
				job.saved(name)
			}
			s.results <- err
		}
	}()
	return s
}

// Submit hands one session to the writer and returns once the
// writer has taken it and begun — its checkpoint-save span is open — without
// waiting for it to reach flash. The write therefore runs beside the caller's
// next step whether or not that step ever blocks: a step loop whose kernels
// spin instead of parking would otherwise keep the writer queued behind
// itself. Submit first joins the write in flight, so it
// blocks for as long as flash is behind the caller, and returns that write's
// error (or any earlier one) without accepting s. Nothing the session
// references — its own fields, or the live tensors it views — may be modified
// until Wait, Close or the next Submit has returned. saved, when
// non-nil, runs on the writer goroutine once s is durable, with the name of
// the slot file that holds it.
func (s *Saver) Submit(sess *Session, saved func(name string)) error {
	if err := s.Wait(); err != nil {
		return err
	}
	s.jobs <- saveJob{sess, saved}
	<-s.started
	s.pending = true
	return nil
}

// Wait blocks until the last submitted session is durable (or its write has
// failed) and returns the first write error of the saver's life.
func (s *Saver) Wait() error {
	if s.pending {
		s.pending = false
		if err := <-s.results; err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// Close joins the write in flight, stops the writer goroutine and returns
// the first write error. The Dir is the opener's again when it returns.
// Closing twice is harmless; Submit after Close is a bug and panics.
func (s *Saver) Close() error {
	err := s.Wait()
	if !s.closed {
		s.closed = true
		close(s.jobs)
		<-s.exited
	}
	return err
}
