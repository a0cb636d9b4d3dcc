package coord

import (
	"fmt"
	"net"
	"testing"

	"github.com/edgeml/edgetrain/ckpt"
	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
)

// BenchmarkUpdateRoundTrip measures the coordinator's per-update cost: the
// worker side encodes and sends an update, the coordinator side receives,
// parses, validates and folds it — the full wire path of one update, minus
// the training itself.
func BenchmarkUpdateRoundTrip(b *testing.B) {
	rng := tensor.NewRNG(11)
	var global []*nn.Param
	var vecs []*tensor.Tensor
	var modelBytes int64
	for i, shape := range [][]int{{64, 32}, {32}, {32, 16}, {16}, {16, 8}, {8}} {
		t := randTensor(rng, shape...)
		global = append(global, nn.NewParam(fmt.Sprintf("p%d", i), t))
		vecs = append(vecs, randTensor(rng, shape...))
		modelBytes += int64(len(t.Data())) * 8
	}
	opt, err := trainer.NewOptimizer("sgd", 0.05)
	if err != nil {
		b.Fatal(err)
	}
	agg, err := fleet.NewAggregator("fedavg", opt)
	if err != nil {
		b.Fatal(err)
	}
	msg := updateMsg{
		round: 1, samples: 32, loss: 1.5,
		vecs:  vecs,
		state: ckpt.WorkerState{Name: "bench", Opt: ckpt.OptimizerState{Name: "sgd"}},
	}

	cw, cc := net.Pipe()
	workerConn := newFrameConn(cw)
	coordConn := newFrameConn(cc)
	defer workerConn.Close()
	defer coordConn.Close()

	errc := make(chan error, 1)
	go func() {
		// Worker side: encode, send, await ack.
		for i := 0; i < b.N; i++ {
			f, err := encodeUpdate(msg)
			if err == nil {
				err = workerConn.Send(f)
			}
			if err == nil {
				_, err = workerConn.Recv()
			}
			if err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()

	b.SetBytes(modelBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := coordConn.Recv()
		if err != nil {
			b.Fatal(err)
		}
		u, err := parseUpdate(f.Payload)
		if err != nil {
			b.Fatal(err)
		}
		upd := u.stats
		upd.Samples, upd.Loss, upd.Vecs = u.samples, u.loss, u.vecs
		if err := agg.Fold(global, []fleet.Update{upd}); err != nil {
			b.Fatal(err)
		}
		if err := coordConn.Send(encodeAck(ackMsg{round: u.round, status: AckOK})); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := <-errc; err != nil {
		b.Fatal(err)
	}
}

// BenchmarkRoundDirective measures the broadcast's two codec halves on the
// repository benchmark's 5.6 MB model: the coordinator encoding the round
// directive into its exact-size payload, and a worker decoding that payload
// straight into its replica's parameters.
func BenchmarkRoundDirective(b *testing.B) {
	global, err := benchModel(1)()
	if err != nil {
		b.Fatal(err)
	}
	replica, err := benchModel(2)()
	if err != nil {
		b.Fatal(err)
	}
	m := roundMsg{round: 3}
	for _, p := range global.Params() {
		m.params = append(m.params, ckpt.NamedTensor{Name: p.Name, Tensor: p.Value})
	}
	ps := replica.Params()
	b.SetBytes(nn.ParamBytes(global.Stages))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := encodeRound(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := decodeRoundInto(f.Payload, ps); err != nil {
			b.Fatal(err)
		}
	}
}
