package main

import (
	"runtime"
	"time"

	"repro/internal/storage"
)

// fleetConfig is the fleet-20k input: 20,000 disks in 200 racks, one
// kernel shard per rack as `figures -fleet` runs it, bursts of 800 requests
// 25 µs apart and the collector off for the event loop (RelaxGC). A smoke
// run uses DefaultFleetConfig's 960 disks.
func fleetConfig(cfg runConfig) storage.FleetConfig {
	c := storage.DefaultFleetConfig()
	if !cfg.smoke {
		c.NumDisks, c.NumRacks = 20_000, 200
		c.RequestsPerDisk = fleetRequestsPerDisk
		c.BurstLen = 800
		c.InterArrival = 25 * time.Microsecond
	}
	c.Shards = c.NumRacks
	c.Seed = uint64(cfg.seed)
	c.RelaxGC = true
	c.Telemetry = cfg.trace
	return c
}

// fleetRequestsPerDisk sizes one fleet call at about 22M kernel events,
// near a second here, so a run repeats the call several times and reports
// medians.
const fleetRequestsPerDisk = 500

func runFleet(cfg runConfig, r *result) {
	fc := fleetConfig(cfg)
	var first map[string]string
	start := time.Now()
	for calls := 1; ; calls++ {
		cpu0 := cpuTime()
		t0 := time.Now()
		res, err := storage.RunFleet(fc)
		call := time.Since(t0)
		cpu := cpuTime() - cpu0
		want := int64(fc.NumDisks * fc.RequestsPerDisk)
		r.Attempted += want
		if err != nil {
			r.Failed += want
			r.fail("fleet run: %v", err)
			return
		}
		r.Failed += want - int64(res.Served)

		got, err := fields(res.Deterministic())
		if err != nil {
			r.fail("fleet result: %v", err)
			return
		}
		if first == nil {
			first = got
			if _, err := checkGolden(cfg, fleetGoldenName(cfg), got); err != nil {
				r.fail("%v", err)
			}
		} else if !equalMaps(first, got) {
			r.fail("fleet run %d differs from run 1 on identical inputs", calls)
		}
		r.Throughput = res.EventsPerSec
		if cfg.trace {
			// The first call in a fresh process also starts the workers'
			// threads and faults in their memory, which the attribution
			// counts as stall: report the second.
			if calls == 2 {
				setKernelLayers(r, res)
				return
			}
			continue
		}
		// One call is one sample: its events over the kernel's own wall,
		// and the time the caller waited. Set-up is the call's time outside
		// the kernel.
		r.sampleCalls(float64(res.Events), res.Wall, 1, call, cpu)
		r.sample("setup_s", (call - res.Wall).Seconds())
		// Repeat while another call of the same length fits the budget; the
		// GC is off inside each call, so collect between calls.
		runtime.GC()
		if time.Since(start)+call > cfg.seconds {
			break
		}
	}
	r.sample("peak_rss_mb", peakRSSMB())
}

func fleetGoldenName(cfg runConfig) string {
	if cfg.smoke {
		return "fleet-20k-smoke"
	}
	return "fleet-20k"
}

// setKernelLayers reports the sharded calendar-queue kernel's telemetry
// from a traced fleet call. exec and queue are shares of the workers' wall
// time; stall is the rest of it (barriers, scheduling, idle workers), and
// coverage is the share exec and queue explain.
func setKernelLayers(r *result, res *storage.FleetResult) {
	ks := res.Kernel
	m := r.Metrics
	exec, queue, _, _ := ks.Attribution()
	var rebuilds, migrations, slotHits uint64
	for _, sh := range ks.Shards {
		rebuilds += sh.Rebuilds
		migrations += sh.Migrations
		slotHits += sh.SlotHits
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(ks.Shards) {
		workers = len(ks.Shards)
	}
	workerNS := float64(ks.WallNS) * float64(workers)
	m["simkernel.events"] = float64(res.Events)
	m["simkernel.ns_per_event"] = ratio(float64(res.Wall.Nanoseconds()), float64(res.Events))
	busy := ratio(float64(exec+queue), workerNS)
	m["simkernel.exec_frac"] = ratio(float64(exec), workerNS)
	m["simkernel.queue_frac"] = ratio(float64(queue), workerNS)
	m["simkernel.stall_frac"] = 1 - busy
	m["simkernel.queue_rebuilds"] = float64(rebuilds)
	m["simkernel.queue_migrations"] = float64(migrations)
	m["simkernel.slot_hits"] = float64(slotHits)
	m["storage.requests"] = float64(res.Served)
	m["power.spin_ups"] = float64(res.SpinUps)
	m["power.spin_downs"] = float64(res.SpinDowns)
	m["trace.coverage_frac"] = busy
}

func equalMaps(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
