package edgesim

import (
	"fmt"
	"math"
)

// Federated-style model updates are the natural middle ground between the
// paper's two poles (ship all data to the cloud vs. train fully in situ):
// every node trains locally but periodically exchanges model-sized updates
// with an aggregator. Section I argues this is exactly the case where Edge
// training stops being attractive — "transferring a model update back and
// forth between the different nodes might introduce excessive communication".
// This file quantifies that trade-off so the ablation benchmarks can show
// where each strategy wins.

// FederatedConfig describes a federated-averaging style deployment.
type FederatedConfig struct {
	Fleet FleetConfig
	// Rounds is the number of aggregation rounds over the simulated period.
	Rounds int
	// UpdateFraction is the size of one uploaded update relative to the full
	// model (1.0 for full weights, smaller for sparsified/quantised updates).
	UpdateFraction float64
	// Participation is the fraction of nodes selected per round (partial
	// participation); zero means full participation. The selected count is
	// max(1, round(Participation*Nodes)) — the same rule the executable
	// fleet package applies, so the two accountings agree exactly.
	Participation float64
}

// ParticipantsPerRound returns how many nodes exchange updates in one round
// under the participation fraction p (zero meaning full participation).
func ParticipantsPerRound(nodes int, p float64) int {
	if p <= 0 || p >= 1 {
		return nodes
	}
	k := int(math.Round(p * float64(nodes)))
	if k < 1 {
		k = 1
	}
	if k > nodes {
		k = nodes
	}
	return k
}

// DefaultFederatedConfig runs weekly aggregation rounds with full-model
// updates over the default fleet.
func DefaultFederatedConfig() FederatedConfig {
	return FederatedConfig{
		Fleet:          DefaultFleetConfig(),
		Rounds:         4,
		UpdateFraction: 1.0,
	}
}

// FederatedResult extends Result with the round structure of the exchange.
type FederatedResult struct {
	Result
	Rounds               int
	ParticipantsPerRound int   // nodes exchanging updates in one round
	BytesPerRound        int64 // per participating node: upload + download of one round
	UsefulWhenLocal      bool  // whether the per-node specialisation survives averaging
}

// SimulateFederated computes the traffic and energy of the federated strategy
// and returns it alongside the plain strategies for comparison.
func SimulateFederated(cfg FederatedConfig) (FederatedResult, []Result, error) {
	if cfg.Rounds <= 0 {
		return FederatedResult{}, nil, fmt.Errorf("edgesim: federated rounds must be positive, got %d", cfg.Rounds)
	}
	if cfg.UpdateFraction <= 0 || cfg.UpdateFraction > 1 {
		return FederatedResult{}, nil, fmt.Errorf("edgesim: update fraction %v outside (0, 1]", cfg.UpdateFraction)
	}
	if cfg.Participation < 0 || cfg.Participation > 1 {
		return FederatedResult{}, nil, fmt.Errorf("edgesim: participation %v outside [0, 1]", cfg.Participation)
	}
	base, err := Simulate(cfg.Fleet)
	if err != nil {
		return FederatedResult{}, nil, err
	}

	node := cfg.Fleet.Node
	updateBytes := int64(float64(node.ModelBytes) * cfg.UpdateFraction)
	perRound := updateBytes + node.ModelBytes // upload the update, download the aggregate
	participants := int64(ParticipantsPerRound(cfg.Fleet.Nodes, cfg.Participation))

	res := FederatedResult{
		Rounds:               cfg.Rounds,
		ParticipantsPerRound: int(participants),
		BytesPerRound:        perRound,
	}
	res.Strategy = "federated"
	res.UplinkBytes = participants * updateBytes * int64(cfg.Rounds)
	res.DownlinkBytes = participants * node.ModelBytes * int64(cfg.Rounds)
	res.SensitiveImagesShared = 0
	res.Specialised = false // averaging across viewpoints undoes per-node specialisation
	res.UsefulWhenLocal = false
	res.NodeRadioEnergyJ = float64(participants) * cfg.Fleet.Edge.TransferEnergyJoules(perRound*int64(cfg.Rounds))

	// Local training cost is the same as the edge-training strategy.
	for _, r := range base {
		if r.Strategy == StrategyEdgeTraining {
			res.NodeComputeEnergyJ = r.NodeComputeEnergyJ
			res.CapturedImages = r.CapturedImages
			res.StorageOK = r.StorageOK
		}
	}
	periodSeconds := float64(cfg.Fleet.Days) * 24 * 3600
	res.MeanUplinkMbpsPerNode = float64(res.UplinkBytes) / float64(cfg.Fleet.Nodes) * 8 / periodSeconds / 1e6
	return res, base, nil
}
