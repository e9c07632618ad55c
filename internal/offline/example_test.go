package offline_test

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/offline"
	"repro/internal/placement"
	"repro/internal/power"
)

// workedExample is the paper's worked example (Figures 2-4): four disks,
// six blocks, one request per block.
func workedExample() (*placement.Placement, []core.Request) {
	plc, err := placement.New(4, [][]core.DiskID{
		{0},       // b1 on d1
		{0, 1},    // b2 on d1,d2
		{0, 1, 3}, // b3 on d1,d2,d4
		{2, 3},    // b4 on d3,d4
		{0, 3},    // b5 on d1,d4
		{2, 3},    // b6 on d3,d4
	})
	if err != nil {
		panic(err)
	}
	times := []time.Duration{0, time.Second, 3 * time.Second, 5 * time.Second, 12 * time.Second, 13 * time.Second}
	reqs := make([]core.Request, 6)
	for i := range reqs {
		reqs[i] = core.Request{ID: core.RequestID(i), Block: core.BlockID(i), Arrival: times[i]}
	}
	return plc, reqs
}

// The worked example under the toy power model: the exact MWIS pipeline
// recovers the optimal offline schedule with energy 19.
func ExampleSolveExact() {
	plc, reqs := workedExample()
	_, stats, err := offline.SolveExact(reqs, plc.Locations, power.ToyConfig())
	if err != nil {
		panic(err)
	}
	fmt.Printf("optimal offline energy: %.0f units\n", stats.Energy)
	// Output: optimal offline energy: 19 units
}

// Evaluating a hand-written schedule under the analytic offline model:
// schedule B of Figure 3 costs 23 units.
func ExampleEvaluate() {
	plc, reqs := workedExample()
	scheduleB := core.Schedule{0, 0, 0, 2, 0, 2}
	stats, err := offline.Evaluate(reqs, scheduleB, power.ToyConfig(), plc.Locations)
	if err != nil {
		panic(err)
	}
	fmt.Printf("schedule B energy: %.0f units\n", stats.Energy)
	// Output: schedule B energy: 23 units
}
