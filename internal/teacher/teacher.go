// Package teacher implements the in-situ student-teacher training pipeline of
// Section III: a generic "teacher" classifier trained at the canonical
// viewpoint, an object tracker that propagates the teacher's confident
// detections backwards through a frame sequence to auto-label an in-situ
// dataset, and a per-node "student" trained on that dataset so that it
// specialises to the node's own viewpoint.
package teacher

import (
	"fmt"

	"github.com/edgeml/edgetrain/internal/chain"
	"github.com/edgeml/edgetrain/internal/nn"
	"github.com/edgeml/edgetrain/internal/tensor"
	"github.com/edgeml/edgetrain/internal/trainer"
	"github.com/edgeml/edgetrain/internal/vision"
)

// Config controls the end-to-end pipeline.
type Config struct {
	ImageSize  int
	NumClasses int

	// NodeViewpoint is the camera skew of the Edge node (0 = the viewpoint
	// the teacher was trained at, 1 = extreme skew).
	NodeViewpoint float64

	// Teacher training.
	TeacherSamples int
	TeacherEpochs  int

	// In-situ harvesting.
	Tracks              int
	FramesPerTrack      int
	ConfidenceThreshold float64

	// Student training.
	StudentEpochs int
	BatchSize     int
	LearningRate  float64
	// Policy is the checkpointing policy used for the student's backward
	// pass on the memory-constrained node.
	Policy chain.Policy

	// Evaluation.
	EvalSamples int

	Seed uint64
}

// DefaultConfig returns a pipeline configuration that runs in a few seconds
// while exhibiting the viewpoint effect clearly.
func DefaultConfig() Config {
	return Config{
		ImageSize:           16,
		NumClasses:          vision.NumClasses,
		NodeViewpoint:       0.85,
		TeacherSamples:      240,
		TeacherEpochs:       4,
		Tracks:              40,
		FramesPerTrack:      12,
		ConfidenceThreshold: 0.6,
		StudentEpochs:       6,
		BatchSize:           16,
		LearningRate:        0.01,
		EvalSamples:         160,
		Seed:                7,
	}
}

func (c Config) normalized() Config {
	d := DefaultConfig()
	if c.ImageSize <= 0 {
		c.ImageSize = d.ImageSize
	}
	if c.NumClasses <= 0 {
		c.NumClasses = d.NumClasses
	}
	if c.TeacherSamples <= 0 {
		c.TeacherSamples = d.TeacherSamples
	}
	if c.TeacherEpochs <= 0 {
		c.TeacherEpochs = d.TeacherEpochs
	}
	if c.Tracks <= 0 {
		c.Tracks = d.Tracks
	}
	if c.FramesPerTrack <= 0 {
		c.FramesPerTrack = d.FramesPerTrack
	}
	if c.ConfidenceThreshold <= 0 {
		c.ConfidenceThreshold = d.ConfidenceThreshold
	}
	if c.StudentEpochs <= 0 {
		c.StudentEpochs = d.StudentEpochs
	}
	if c.BatchSize <= 0 {
		c.BatchSize = d.BatchSize
	}
	if c.LearningRate <= 0 {
		c.LearningRate = d.LearningRate
	}
	if c.EvalSamples <= 0 {
		c.EvalSamples = d.EvalSamples
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// NewClassifier builds the small convolutional classifier used for both the
// teacher and the student: two conv/pool stages followed by a two-layer head.
func NewClassifier(name string, imageSize, numClasses int, seed uint64) *nn.Sequential {
	rng := tensor.NewRNG(seed)
	pooled := imageSize / 4
	return nn.NewSequential(name,
		nn.NewConv2D(name+".conv1", 1, 8, 3, 1, 1, true, rng),
		nn.NewReLU(name+".relu1"),
		nn.NewMaxPool2D(name+".pool1", 2, 2),
		nn.NewConv2D(name+".conv2", 8, 16, 3, 1, 1, true, rng),
		nn.NewReLU(name+".relu2"),
		nn.NewMaxPool2D(name+".pool2", 2, 2),
		nn.NewFlatten(name+".flatten"),
		nn.NewLinear(name+".fc1", 16*pooled*pooled, 32, true, rng),
		nn.NewReLU(name+".relu3"),
		nn.NewLinear(name+".fc2", 32, numClasses, true, rng),
	)
}

// setToDataset converts a labelled set into a trainer dataset.
func setToDataset(s *vision.LabelledSet) trainer.Dataset {
	samples := make([]trainer.Batch, 0, s.Len())
	for i := range s.Images {
		samples = append(samples, trainer.Batch{Images: s.Images[i], Labels: []int{s.Labels[i]}})
	}
	return trainer.NewSliceDataset(samples)
}

// trainOn runs supervised training of a classifier on a labelled set.
func trainOn(net *nn.Sequential, set *vision.LabelledSet, epochs, batch int, lr float64, policy chain.Policy) (*chain.Chain, error) {
	c := chain.FromSequential(net)
	tr, err := trainer.New(c, trainer.Config{
		Epochs:    epochs,
		BatchSize: batch,
		Optimizer: trainer.NewAdam(lr),
		Policy:    policy,
	})
	if err != nil {
		return nil, err
	}
	if _, err := tr.Train(setToDataset(set)); err != nil {
		return nil, err
	}
	return c, nil
}

// evaluate returns the accuracy of a classifier on a labelled set.
func evaluate(c *chain.Chain, set *vision.LabelledSet, batch int) (float64, error) {
	_, acc, err := trainer.Evaluate(c, setToDataset(set), batch)
	return acc, err
}

// Prediction is the teacher's verdict on one frame.
type Prediction struct {
	Class      int
	Confidence float64
}

// Classify runs a trained classifier on a single frame in inference mode and
// returns the predicted class and its softmax confidence.
func Classify(c *chain.Chain, frame *tensor.Tensor) Prediction {
	seq := nn.NewSequential("infer", c.Stages...)
	logits := seq.Forward(frame, false)
	ce := nn.NewSoftmaxCrossEntropy()
	ce.Forward(logits, make([]int, logits.Dim(0)))
	probs := ce.Probabilities()
	best, arg := probs.Max()
	_ = arg
	preds := tensor.ArgmaxRows(probs)
	return Prediction{Class: preds[0], Confidence: best}
}

// Result summarises one end-to-end pipeline run.
type Result struct {
	TeacherCanonicalAccuracy float64 // teacher on its own training viewpoint
	TeacherNodeAccuracy      float64 // teacher on the node's viewpoint (the problem)
	StudentNodeAccuracy      float64 // student on the node's viewpoint (the fix)

	TracksHarvested int // tracks the tracker accepted and the teacher labelled confidently
	TracksRejected  int
	HarvestedImages int
	LabelAccuracy   float64 // fraction of auto-labels that are actually correct
	// Usage is what the student's training cost under the node's
	// checkpointing policy, its epochs folded together.
	chain.Usage
}

// Run executes the complete student-teacher pipeline.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.normalized()
	rng := tensor.NewRNG(cfg.Seed)
	res := &Result{}

	// 1. Train the teacher at the canonical viewpoint (what a generic model
	//    shipped to every node would have seen).
	teacherTrain := vision.Dataset(rng, cfg.TeacherSamples, 0.05, cfg.ImageSize)
	teacherNet := NewClassifier("teacher", cfg.ImageSize, cfg.NumClasses, cfg.Seed+1)
	teacherChain, err := trainOn(teacherNet, teacherTrain, cfg.TeacherEpochs, cfg.BatchSize, cfg.LearningRate, chain.Policy{})
	if err != nil {
		return nil, fmt.Errorf("teacher training: %w", err)
	}

	// 2. Evaluate the teacher on the canonical and node viewpoints.
	canonicalTest := vision.Dataset(rng, cfg.EvalSamples, 0.05, cfg.ImageSize)
	nodeTest := vision.Dataset(rng, cfg.EvalSamples, cfg.NodeViewpoint, cfg.ImageSize)
	if res.TeacherCanonicalAccuracy, err = evaluate(teacherChain, canonicalTest, cfg.BatchSize); err != nil {
		return nil, err
	}
	if res.TeacherNodeAccuracy, err = evaluate(teacherChain, nodeTest, cfg.BatchSize); err != nil {
		return nil, err
	}

	// 3. Harvest an in-situ dataset: for every tracked subject, classify the
	//    final (nearly canonical) frame with the teacher and, if the track is
	//    consistent and the teacher is confident, propagate the label to all
	//    earlier (skewed) frames.
	student := &vision.LabelledSet{}
	correctLabels := 0
	for i := 0; i < cfg.Tracks; i++ {
		class := vision.Class(i % cfg.NumClasses)
		track := vision.GenerateTrack(rng, class, cfg.NodeViewpoint, cfg.FramesPerTrack, cfg.ImageSize)
		tracked := vision.TrackObject(track, vision.DefaultTrackerConfig)
		if !tracked.Consistent {
			res.TracksRejected++
			continue
		}
		last := track.Frames[len(track.Frames)-1]
		pred := Classify(teacherChain, last)
		if pred.Confidence < cfg.ConfidenceThreshold {
			res.TracksRejected++
			continue
		}
		res.TracksHarvested++
		if pred.Class == int(class) {
			correctLabels++
		}
		for _, f := range track.Frames {
			student.Append(f, pred.Class)
		}
	}
	res.HarvestedImages = student.Len()
	if res.TracksHarvested > 0 {
		res.LabelAccuracy = float64(correctLabels) / float64(res.TracksHarvested)
	}
	if student.Len() == 0 {
		return res, fmt.Errorf("teacher: no tracks harvested; the teacher never recognised a subject")
	}

	// 4. Train the student on the harvested set under the node's
	//    checkpointing policy (the memory-constrained backward pass).
	studentNet := NewClassifier("student", cfg.ImageSize, cfg.NumClasses, cfg.Seed+2)
	studentChain := chain.FromSequential(studentNet)
	tr, err := trainer.New(studentChain, trainer.Config{
		Epochs:    cfg.StudentEpochs,
		BatchSize: cfg.BatchSize,
		Optimizer: trainer.NewAdam(cfg.LearningRate),
		Policy:    cfg.Policy,
	})
	if err != nil {
		return nil, err
	}
	stats, err := tr.Train(setToDataset(student))
	if err != nil {
		return nil, fmt.Errorf("student training: %w", err)
	}
	for _, st := range stats {
		res.Usage.Add(st.Usage)
	}

	// 5. Evaluate the student on the node viewpoint.
	if res.StudentNodeAccuracy, err = evaluate(studentChain, nodeTest, cfg.BatchSize); err != nil {
		return nil, err
	}
	return res, nil
}

// String summarises the pipeline result.
func (r *Result) String() string {
	return fmt.Sprintf(
		"teacher: canonical %.1f%%, node %.1f%% | student: node %.1f%% | harvested %d images from %d tracks (label accuracy %.1f%%)",
		100*r.TeacherCanonicalAccuracy, 100*r.TeacherNodeAccuracy, 100*r.StudentNodeAccuracy,
		r.HarvestedImages, r.TracksHarvested, 100*r.LabelAccuracy)
}
