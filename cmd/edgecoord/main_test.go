package main

import (
	"testing"

	"github.com/edgeml/edgetrain/coord"
	"github.com/edgeml/edgetrain/internal/fleetdemo"
)

// TestCompressFlag pins what lets main hand -compress to coord.New as typed:
// New itself parses the spec, so a bad one stops the binary before it
// listens and a good one, in any spelling, builds a coordinator.
func TestCompressFlag(t *testing.T) {
	for _, good := range []string{"", "none", "int8", "deflate+topk:0.25", "topk:0.05+int8+deflate"} {
		c, err := coord.New(coord.Config{Workers: 1, Compression: good}, fleetdemo.Model(1))
		if err != nil {
			t.Fatalf("-compress %q: %v", good, err)
		}
		c.Close()
	}
	for _, bad := range []string{"gzip", "topk:0", "raw+raw"} {
		if _, err := coord.New(coord.Config{Workers: 1, Compression: bad}, fleetdemo.Model(1)); err == nil {
			t.Fatalf("-compress %q accepted", bad)
		}
	}
}
