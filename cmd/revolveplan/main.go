// Command revolveplan inspects checkpointing schedules planned through the
// public plan package and compares them against PyTorch's
// checkpoint_sequential: the minimal forward work for a slot budget, the
// minimal slots for a recompute budget, the Section V memory formula and its
// 2*sqrt(l) lower bound, and the full action listing of a schedule.
//
// Usage:
//
//	revolveplan -l 152 -slots 8                   # cost summary for one configuration
//	revolveplan -l 50 -slots 3 -print             # full action listing
//	revolveplan -l 60 -strategy sequential -segments 6   # any strategy of -list
//	revolveplan -l 80 -strategy twolevel -slots 2 -disk-slots 4
//	revolveplan -l 152 -rho 2                     # minimal slots for a recompute budget
//	revolveplan -l 152 -sequential                # Section V formula sweep over segments
//	revolveplan -l 152 -sweep                     # slots vs forwards/rho table
//	revolveplan -list                             # the planning strategies
//	revolveplan -l 152 -strategy auto -budget 64MB -state-bytes 4000000
//	revolveplan -l 152 -strategy auto -device waggle -state-bytes 16MB
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"github.com/edgeml/edgetrain/internal/checkpoint"
	"github.com/edgeml/edgetrain/internal/device"
	"github.com/edgeml/edgetrain/internal/memmodel"
	"github.com/edgeml/edgetrain/plan"
	"github.com/edgeml/edgetrain/schedule"
)

func main() {
	l := flag.Int("l", 152, "chain length (network depth)")
	strategy := flag.String("strategy", "revolve", "planning strategy (see -list)")
	slots := flag.Int("slots", 0, "checkpoint slot budget")
	diskSlots := flag.Int("disk-slots", 0, "flash-tier checkpoints for the twolevel strategy")
	segments := flag.Int("segments", 0, "segment count for the sequential strategy")
	rho := flag.Float64("rho", 0, "recompute-factor budget (selects minimal slots)")
	budget := flag.String("budget", "", "RAM byte budget for the auto strategy, e.g. 64MB")
	deviceName := flag.String("device", "", "device whose memory defaults the budget: waggle or cloud")
	stateBytes := flag.String("state-bytes", "", "size of one stored state for the auto strategy, e.g. 4MB")
	weightBytes := flag.String("weight-bytes", "0", "resident weight state for the auto strategy, e.g. 100MB")
	print := flag.Bool("print", false, "print the full schedule action listing")
	sequential := flag.Bool("sequential", false, "sweep the checkpoint_sequential formula over segment counts")
	sweep := flag.Bool("sweep", false, "print forwards and rho for every slot count")
	list := flag.Bool("list", false, "list the planning strategies")
	flag.Parse()

	cost := checkpoint.DefaultCostModel

	parseBytes := func(s string) int64 {
		if s == "" {
			return 0
		}
		b, err := memmodel.ParseBytes(s)
		if err != nil {
			log.Fatal(err)
		}
		return b
	}
	budgetBytes := parseBytes(*budget)
	if budgetBytes == 0 && *deviceName != "" {
		d, err := device.ByName(*deviceName)
		if err != nil {
			log.Fatal(err)
		}
		budgetBytes = d.MemoryBytes
	}

	switch {
	case *list:
		fmt.Println("registered planning strategies:")
		for _, info := range plan.Describe() {
			opts := ""
			if len(info.Options) > 0 {
				opts = fmt.Sprintf(" (options: %s)", strings.Join(info.Options, ", "))
			}
			fmt.Printf("  %-12s %s%s\n", info.Name, info.Description, opts)
		}
	case *sequential:
		fmt.Printf("checkpoint_sequential on a homogeneous chain of l=%d blocks\n", *l)
		fmt.Printf("lower bound 2*sqrt(l) = %.2f activation slots\n\n", checkpoint.SequentialLowerBound(*l))
		fmt.Printf("%-10s%-14s%-14s%-10s\n", "segments", "memory slots", "forwards", "rho")
		for s := 1; s <= *l; s++ {
			if s > 24 && s < *l-1 {
				if s == 25 {
					fmt.Println("...")
				}
				continue
			}
			mem := checkpoint.SequentialMemorySlots(*l, s)
			fw := checkpoint.SequentialForwards(*l, s)
			fmt.Printf("%-10d%-14d%-14d%-10.3f\n", s, mem, fw, cost.Rho(*l, fw))
		}
		bestS, bestM := checkpoint.BestSequentialSegments(*l)
		fmt.Printf("\nbest segment count: %d (memory %d slots)\n", bestS, bestM)
	case *sweep:
		fmt.Printf("optimal checkpointing for a chain of l=%d steps\n", *l)
		fmt.Printf("%-8s%-14s%-10s%-12s\n", "slots", "forwards", "rho", "repetition")
		for c := 0; c <= *l-1; c++ {
			if c > 20 && c < *l-5 && c%10 != 0 {
				continue
			}
			fw := checkpoint.MinForwards(*l, c)
			fmt.Printf("%-8d%-14d%-10.3f%-12d\n", c, fw, cost.Rho(*l, fw), checkpoint.Repetition(*l, c))
		}
	case *rho > 0 && *strategy == "revolve" && *slots == 0:
		res := checkpoint.MinSlotsForRho(*l, *rho, cost)
		fmt.Printf("chain l=%d, recompute budget rho<=%.3f (backward ratio %.1f):\n", *l, *rho, cost.BackwardRatio)
		fmt.Printf("  minimal checkpoint slots: %d\n", res.Slots)
		fmt.Printf("  forward executions:       %d\n", res.Forwards)
		fmt.Printf("  achieved rho:             %.3f\n", cost.Rho(*l, res.Forwards))
		fmt.Printf("  feasible:                 %v\n", res.Feasible)
	default:
		opts := plan.Options{
			Slots:        *slots,
			DiskSlots:    *diskSlots,
			Segments:     *segments,
			Rho:          *rho,
			MemoryBudget: budgetBytes,
		}
		if opts.Slots <= 0 && *strategy == "revolve" && *rho == 0 {
			opts.Slots = 8
		}
		spec := plan.ChainSpec{
			Length:          *l,
			WeightBytes:     parseBytes(*weightBytes),
			ActivationBytes: parseBytes(*stateBytes),
		}
		if *strategy == "auto" {
			choice, err := plan.AutoSelect(spec, opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(choice)
		}
		sched, tr, err := plan.Validate(*strategy, spec, opts)
		if err != nil {
			log.Fatal(err)
		}
		// A live tape holds a state as a slot does: compare at both.
		held := tr.PeakSlots + tr.PeakTapes
		fmt.Printf("%s schedule for l=%d with %d slots:\n", sched.Policy, *l, sched.Slots)
		fmt.Printf("  forward executions: %d (revolve optimum for %d slots: %d)\n",
			tr.Forwards, held, checkpoint.MinForwards(*l, held))
		fmt.Printf("  peak slots used:    %d\n", tr.PeakSlots)
		if tr.PeakTapes > 0 {
			fmt.Printf("  peak live tapes:    %d\n", tr.PeakTapes)
		}
		if tr.PeakDiskSlots > 0 {
			fmt.Printf("  tier breakdown:     peak %d RAM + %d flash slots, %d flash writes, %d flash reads\n",
				tr.PeakRAMSlots, tr.PeakDiskSlots, tr.DiskWrites, tr.DiskReads)
		}
		fmt.Printf("  restores:           %d\n", tr.Restores)
		fmt.Printf("  max step reruns:    %d\n", tr.MaxStepExecutions)
		factor := 1.0
		if *l > 0 {
			factor = cost.TraceTime(*l, tr) / cost.BaselineTime(*l)
		}
		fmt.Printf("  recompute factor:   %.3f\n", factor)
		seq := checkpoint.SequentialMemorySlots(*l, held+1)
		fmt.Printf("  checkpoint_sequential with %d segments would retain %d activations (vs %d here)\n",
			held+1, seq, held+1)
		if *print {
			fmt.Println()
			fmt.Print(schedule.Render(sched))
		}
	}
}
