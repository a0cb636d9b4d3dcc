// Viewpoint training: the full student-teacher pipeline of Section III.
//
// A teacher classifier is trained at the canonical viewpoint, deployed on a
// node whose camera is mounted at a skewed angle, and evaluated there (it
// degrades badly). The node then tracks subjects across its field of view,
// lets the teacher label the final (nearly canonical) frame of each track,
// propagates that label to the earlier skewed frames, and trains a student on
// the harvested set — under a Revolve checkpointing policy, because the node
// has little memory. No image ever leaves the node.
//
// Run with: go run ./examples/viewpoint_training
package main

import (
	"fmt"
	"log"

	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/checkpoint"
	"github.com/edgeml/edgetrain/internal/teacher"
)

func main() {
	cfg := teacher.DefaultConfig()
	cfg.Policy = chain.Policy{Kind: "revolve", Slots: 3, Cost: checkpoint.DefaultCostModel}

	fmt.Printf("node viewpoint skew: %.2f; harvesting %d tracks of %d frames each\n\n",
		cfg.NodeViewpoint, cfg.Tracks, cfg.FramesPerTrack)
	res, err := teacher.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("teacher accuracy at its own (canonical) viewpoint: %5.1f%%\n", 100*res.TeacherCanonicalAccuracy)
	fmt.Printf("teacher accuracy at the node's viewpoint:          %5.1f%%   <- the viewpoint problem\n", 100*res.TeacherNodeAccuracy)
	fmt.Printf("student accuracy at the node's viewpoint:          %5.1f%%   <- after in-situ training\n\n", 100*res.StudentNodeAccuracy)

	fmt.Printf("in-situ dataset: %d auto-labelled images from %d accepted tracks (%d rejected); label accuracy %.1f%%\n",
		res.HarvestedImages, res.TracksHarvested, res.TracksRejected, 100*res.LabelAccuracy)
	fmt.Printf("student training ran under Revolve checkpointing: peak %d retained states (%.2f MB measured)\n",
		res.PeakStates, float64(res.PeakStateBytes)/1e6)
	fmt.Println("\nno raw image left the node; only the teacher model was downloaded once.")
}
