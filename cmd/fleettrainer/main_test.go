package main

import (
	"testing"

	"github.com/edgeml/edgetrain/fleet"
	"github.com/edgeml/edgetrain/internal/fleetdemo"
)

// TestCompressFlag pins what lets main hand -compress to fleet.New as typed:
// New itself parses the spec, so a bad one stops the binary before it trains
// and a good one, in any spelling, builds a fleet.
func TestCompressFlag(t *testing.T) {
	build := func(spec string) error {
		f, err := fleet.New(fleet.Config{Workers: make([]fleet.WorkerSpec, 1), Compression: spec},
			fleetdemo.Model(1), fleetdemo.Dataset(1, 4, 1))
		if err == nil {
			f.Close()
		}
		return err
	}
	for _, good := range []string{"", "none", "fp16+deflate", "topk:0.05+int8+deflate"} {
		if err := build(good); err != nil {
			t.Fatalf("-compress %q: %v", good, err)
		}
	}
	for _, bad := range []string{"zstd", "topk:1.5", "int8+fp16"} {
		if err := build(bad); err == nil {
			t.Fatalf("-compress %q accepted", bad)
		}
	}
}
