package edgesim

import "testing"

func TestSimulateFederatedTrafficOrdering(t *testing.T) {
	fed, base, err := SimulateFederated(DefaultFederatedConfig())
	if err != nil {
		t.Fatal(err)
	}
	var cloud, edge Result
	for _, r := range base {
		switch r.Strategy {
		case StrategyCloudTraining:
			cloud = r
		case StrategyEdgeTraining:
			edge = r
		}
	}
	// The expected ordering of network traffic: edge < federated < cloud.
	if fed.TotalNetworkBytes() <= edge.TotalNetworkBytes() {
		t.Fatalf("federated traffic %d should exceed edge-training traffic %d", fed.TotalNetworkBytes(), edge.TotalNetworkBytes())
	}
	if fed.TotalNetworkBytes() >= cloud.TotalNetworkBytes() {
		t.Fatalf("federated traffic %d should stay below cloud-training traffic %d", fed.TotalNetworkBytes(), cloud.TotalNetworkBytes())
	}
	// Federated exchange keeps raw images on the node but loses the
	// per-viewpoint specialisation.
	if fed.SensitiveImagesShared != 0 {
		t.Fatal("federated exchange must not ship raw images")
	}
	if fed.Specialised {
		t.Fatal("averaged models are not per-viewpoint specialised")
	}
	if fed.NodeComputeEnergyJ <= 0 {
		t.Fatal("federated nodes still train locally")
	}
}

func TestSimulateFederatedScalesWithRounds(t *testing.T) {
	cfg := DefaultFederatedConfig()
	cfg.Rounds = 2
	two, _, err := SimulateFederated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Rounds = 8
	eight, _, err := SimulateFederated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if eight.UplinkBytes != 4*two.UplinkBytes {
		t.Fatalf("uplink should scale linearly with rounds: %d vs %d", eight.UplinkBytes, two.UplinkBytes)
	}
}

func TestSimulateFederatedSparsification(t *testing.T) {
	cfg := DefaultFederatedConfig()
	full, _, err := SimulateFederated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.UpdateFraction = 0.1
	sparse, _, err := SimulateFederated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sparse.UplinkBytes >= full.UplinkBytes {
		t.Fatal("sparsified updates should reduce uplink traffic")
	}
	if sparse.DownlinkBytes != full.DownlinkBytes {
		t.Fatal("the aggregated model download is unchanged by sparsification")
	}
}

func TestSimulateFederatedValidation(t *testing.T) {
	cfg := DefaultFederatedConfig()
	cfg.Rounds = 0
	if _, _, err := SimulateFederated(cfg); err == nil {
		t.Fatal("zero rounds accepted")
	}
	cfg = DefaultFederatedConfig()
	cfg.UpdateFraction = 0
	if _, _, err := SimulateFederated(cfg); err == nil {
		t.Fatal("zero update fraction accepted")
	}
	cfg = DefaultFederatedConfig()
	cfg.Fleet.Nodes = 0
	if _, _, err := SimulateFederated(cfg); err == nil {
		t.Fatal("invalid fleet accepted")
	}
}

func TestSimulateFederatedPartialParticipation(t *testing.T) {
	cfg := DefaultFederatedConfig()
	full, _, err := SimulateFederated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Participation = 0.5
	half, _, err := SimulateFederated(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := ParticipantsPerRound(cfg.Fleet.Nodes, 0.5)
	if half.ParticipantsPerRound != k {
		t.Fatalf("participants %d, want %d", half.ParticipantsPerRound, k)
	}
	wantUp := full.UplinkBytes * int64(k) / int64(cfg.Fleet.Nodes)
	if half.UplinkBytes != wantUp {
		t.Fatalf("uplink %d, want %d", half.UplinkBytes, wantUp)
	}
	if half.DownlinkBytes >= full.DownlinkBytes {
		t.Fatalf("partial participation should cut downlink: %d vs %d", half.DownlinkBytes, full.DownlinkBytes)
	}
	// Per-participant round traffic is unchanged; only the participant count moves.
	if half.BytesPerRound != full.BytesPerRound {
		t.Fatalf("per-node round bytes changed: %d vs %d", half.BytesPerRound, full.BytesPerRound)
	}
	cfg.Participation = 1.5
	if _, _, err := SimulateFederated(cfg); err == nil {
		t.Fatal("participation > 1 accepted")
	}
}

func TestParticipantsPerRound(t *testing.T) {
	cases := []struct {
		nodes int
		p     float64
		want  int
	}{
		{10, 0, 10}, {10, 1, 10}, {10, 0.5, 5}, {10, 0.26, 3},
		{10, 0.01, 1}, {3, 0.5, 2}, {1, 0.1, 1},
	}
	for _, tc := range cases {
		if got := ParticipantsPerRound(tc.nodes, tc.p); got != tc.want {
			t.Errorf("ParticipantsPerRound(%d, %v) = %d, want %d", tc.nodes, tc.p, got, tc.want)
		}
	}
}
