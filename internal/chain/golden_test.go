package chain

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/edgeml/edgetrain/schedule"
)

// TestScheduleGolden pins the planners' output across commits, where the
// conformance grid only checks that whatever they emit is a valid reversal:
// sha256 of schedule.Render — policy label, length, slot budget and every
// action with its slot and tier — for each strategy and chain length over a
// grid of tunables. The hashes were generated at a1f86b1, the commit before
// the planning stack was folded onto one schedule type, and the test plans
// through chain.Policy, whose spelling that change leaves alone, so it holds
// unedited on both sides of it. A planner change that moves a hash has
// changed an emitted action list (or its label), and with it what every
// executor runs.
func TestScheduleGolden(t *testing.T) {
	const weights, state = 1 << 20, 1 << 16
	grid := []int{1, 2, 3, 5, 8}
	policies := map[string]func(l int) []Policy{
		"storeall": func(int) []Policy { return []Policy{{Kind: "storeall"}} },
		"revolve": func(int) (ps []Policy) {
			for _, s := range grid {
				ps = append(ps, Policy{Kind: "revolve", Slots: s})
			}
			return ps
		},
		"sequential": func(int) (ps []Policy) {
			for _, s := range grid {
				ps = append(ps, Policy{Kind: "sequential", Segments: s + 1})
			}
			return ps
		},
		"twolevel": func(int) (ps []Policy) {
			for _, s := range grid {
				for _, d := range []int{2, 4} {
					ps = append(ps, Policy{Kind: "twolevel", Slots: s, DiskSlots: d})
				}
			}
			return ps
		},
		// Budgets from minimal Revolve (input + working state + one slot)
		// up to room for every state, so all three selections occur.
		"auto": func(l int) (ps []Policy) {
			for _, states := range []int{3, 4, 5, 7, 10, l + 2} {
				ps = append(ps, Policy{Kind: "auto", WeightBytes: weights, ActivationBytes: state,
					MemoryBudget: weights + int64(states)*state})
			}
			return ps
		},
	}
	golden := map[string]string{
		"auto/L=1":         "bc20c1db1b5fa10eb6c580dba32603c0ef0c6fc94776bf94ae54ffa009452a32",
		"auto/L=2":         "ba3e4a1176936e493841ac5bc51af7ca6361c8ee244ef0f35a6d46a2628a9c4e",
		"auto/L=5":         "de44bee505657b0709f5961bcdbd907e6264419559fd7b901f4c018c1e3f2c0b",
		"auto/L=21":        "948922c21f5a1dd791ed920999c77a13ef9f6ee5f217610a24829e15a2ddb3e8",
		"auto/L=50":        "ee0bca299a7ae353f776df5ee3b855cb011ebb76abf044c7a04c4f63744eb014",
		"auto/L=152":       "21292929f9c12d273cdd100f74675124e648cdc85ca0cf0229fca884f382e4d8",
		"revolve/L=1":      "161486456bbc56d9d5c03dc63800a2f8b6f026838073d4b5b34c1622fc4a46bf",
		"revolve/L=2":      "2ba89e95eb38ef306dd78fcab97d58a481d105244519dd236c6072777c2a0e5e",
		"revolve/L=5":      "c36847a3bf8dfbddbf9099a7db3ecb82441c83107cd7e2cfc93abbf9fc85fa1b",
		"revolve/L=21":     "96dfde7eee8fd2690add2c14e504fb59c0aed25c1dadc8c0cab3b9809a205ac2",
		"revolve/L=50":     "94a2cbb115b237bef8ff76200074891a7c6937d7bdddfcaa3804240da9cd7ae0",
		"revolve/L=152":    "d6eea634730747f4105213b68fce2f5ac289d1a45a882cd321bd5c863ee2d6bc",
		"sequential/L=1":   "9f36dabc02c8c40ed84c0893ca141efa2070d22b3a2e5fa37061acd4ede1d7d3",
		"sequential/L=2":   "00f8f800f5fb48fcae266d75b9be430936381a0bbf1205c763e325788445869b",
		"sequential/L=5":   "2db80e60e96d60b380e47d371faa56f72be39ac9167a6c4601029a55de114a97",
		"sequential/L=21":  "7bbc45864c4a684fab26c202bb9bd19817a6c415643df4285f1afe7767f39222",
		"sequential/L=50":  "c7be3bd593142ca4170a897adaac065bcc9bb8386b9f4e52eb927b6ba4a74f93",
		"sequential/L=152": "68a8219c5aafa90e5336a4152550e98f425b8d0218c8ab9344eb7dbb7b65c5e7",
		"storeall/L=1":     "cd556e1e5688d0d3b1b966e5d6ce68c9d288556eb5c1f42b27b6f9e4d66fc415",
		"storeall/L=2":     "6f806f22d7e44dbc43178b77519e1ecab9eb3de83afeb43ea9c1c66d749929b6",
		"storeall/L=5":     "937581711040569b63d2a072a4eb8b973f3f9fbfb105fa147f900a0dad315ff1",
		"storeall/L=21":    "8a1d5e4bc84cf84019b3b98f602b2888e020100acd02641a2bb4cff6f276dcc1",
		"storeall/L=50":    "2b5d9acd1ac6711dee4ca84ec22557d81ea75a9a5bd63460450a20952ca05027",
		"storeall/L=152":   "a0565158ff6a9c1176c72ab87b72a14045d4b42c2920ec4b3e41d3a222a866e7",
		"twolevel/L=1":     "71554f493ee19fb582682e50e25754568b5396659d193b452e2b67994b82154e",
		"twolevel/L=2":     "c846caade90e293f4b2dd1ad314b6dae7d8762fe674f7b40cac5e89ba99e77c6",
		"twolevel/L=5":     "a19581113734ccd532170b27c7dad03ac6975bc0d1735e4391d663b2c45c0cdb",
		"twolevel/L=21":    "62de877bbbbc9a95a10eff05d11d67d9bf5d7c97b412591bb4901dbda23c9d5d",
		"twolevel/L=50":    "637b0b833c9422f4f4e5e743a3d57fc4acb70164a374ce60f5806ffc87e2e874",
		"twolevel/L=152":   "b515ad6c85af89101d27d095daa464d6a59e2287ddcc0ff58db9f81585d40ef3",
	}
	seen := 0
	for name, build := range policies {
		for _, l := range []int{1, 2, 5, 21, 50, 152} {
			h := sha256.New()
			for _, p := range build(l) {
				sched, err := p.Plan(l)
				if err != nil {
					t.Fatalf("%s L=%d %+v: %v", name, l, p, err)
				}
				h.Write([]byte(schedule.Render(sched)))
			}
			key := fmt.Sprintf("%s/L=%d", name, l)
			want, ok := golden[key]
			if !ok {
				t.Fatalf("no golden hash for %s", key)
			}
			seen++
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("%s: rendered schedules sha256 %s, want %s", key, got, want)
			}
		}
	}
	if seen != len(golden) {
		t.Fatalf("%d golden hashes, %d checked", len(golden), seen)
	}
}
