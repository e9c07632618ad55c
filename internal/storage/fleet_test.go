package storage

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func smallFleetConfig() FleetConfig {
	cfg := DefaultFleetConfig()
	cfg.NumDisks = 240
	cfg.NumRacks = 12
	cfg.RequestsPerDisk = 25
	cfg.BurstLen = 60
	cfg.Seed = 7
	return cfg
}

// TestFleetShardInvariant pins the free-running mode's guarantee: every
// deterministic field of FleetResult — event count, horizon, energy float
// bits, spin counts, latency mean and percentiles — is identical between
// the one-shard run and every other shard and worker count, and across
// repeated runs.
func TestFleetShardInvariant(t *testing.T) {
	t.Parallel()
	run := func(shards, workers int) FleetResult {
		cfg := smallFleetConfig()
		cfg.Shards = shards
		cfg.Workers = workers
		res, err := RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Deterministic()
	}
	ref := run(0, 0)
	if ref.Served != 240*25 {
		t.Fatalf("served %d of %d requests", ref.Served, 240*25)
	}
	if ref.SpinUps == 0 || ref.SpinDowns == 0 {
		t.Fatal("burst gaps did not exercise spin cycles")
	}
	if ref.Energy <= 0 || ref.Energy >= ref.AlwaysOnEnergy {
		t.Fatalf("energy %.1f J outside (0, always-on %.1f J)", ref.Energy, ref.AlwaysOnEnergy)
	}
	if ref.P50 > ref.P90 || ref.P90 > ref.P99 || ref.MeanResponse <= 0 {
		t.Fatalf("implausible latency profile: mean=%v p50=%v p90=%v p99=%v",
			ref.MeanResponse, ref.P50, ref.P90, ref.P99)
	}
	for _, tc := range []struct{ shards, workers int }{
		{1, 1}, {2, 1}, {4, 4}, {6, 2}, {12, 8},
	} {
		if got := run(tc.shards, tc.workers); !reflect.DeepEqual(got, ref) {
			t.Fatalf("shards=%d workers=%d diverges from serial:\n%+v\nvs\n%+v",
				tc.shards, tc.workers, got, ref)
		}
	}
	if a, b := run(4, 4), run(4, 4); !reflect.DeepEqual(a, b) {
		t.Fatal("two identical sharded fleet runs diverged")
	}
}

// TestFleetValidate pins the topology constraints: racks divide disks,
// shards divide racks (a rack never straddles a shard), replication fits
// in a rack.
func TestFleetValidate(t *testing.T) {
	t.Parallel()
	base := smallFleetConfig() // 240 disks, 12 racks, rf 3
	for _, tc := range []struct {
		name   string
		mutate func(*FleetConfig)
		ok     bool
	}{
		{"default", func(*FleetConfig) {}, true},
		{"serial", func(c *FleetConfig) { c.Shards = 1 }, true},
		{"shards divide racks", func(c *FleetConfig) { c.Shards = 6 }, true},
		{"shards eq racks", func(c *FleetConfig) { c.Shards = 12 }, true},
		{"negative shards", func(c *FleetConfig) { c.Shards = -1 }, false},
		{"shards straddle racks", func(c *FleetConfig) { c.Shards = 5 }, false},
		{"more shards than racks", func(c *FleetConfig) { c.Shards = 24 }, false},
		{"racks straddle disks", func(c *FleetConfig) { c.NumRacks = 7 }, false},
		{"rf too big", func(c *FleetConfig) { c.ReplicationFactor = 21 }, false},
		{"rf zero", func(c *FleetConfig) { c.ReplicationFactor = 0 }, false},
		{"no requests", func(c *FleetConfig) { c.RequestsPerDisk = 0 }, false},
		{"no gap", func(c *FleetConfig) { c.IdleGap = 0 }, false},
	} {
		cfg := base
		tc.mutate(&cfg)
		err := cfg.validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

// TestLatBucket pins the histogram mapping: monotone, floor-consistent,
// in range.
func TestLatBucket(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	prev := -1
	for _, ns := range []uint64{0, 1, 15, 16, 17, 31, 32, 1000, 1 << 20, 1 << 40, 1<<63 - 1} {
		b := latBucket(ns)
		if b < prev {
			t.Fatalf("latBucket not monotone at %d", ns)
		}
		prev = b
		if b < 0 || b >= fleetHistBuckets {
			t.Fatalf("latBucket(%d) = %d out of range", ns, b)
		}
		if f := bucketFloor(b); uint64(f) > ns {
			t.Fatalf("bucketFloor(%d) = %d above sample %d", b, f, ns)
		}
	}
	for i := 0; i < 10000; i++ {
		ns := rng.Uint64() >> uint(rng.Intn(60))
		b := latBucket(ns)
		if f := bucketFloor(b); uint64(f) > ns || latBucket(uint64(f)) != b {
			t.Fatalf("bucket %d floor %d inconsistent for %d", b, f, ns)
		}
	}
	if latBucket(uint64(time.Hour)) >= fleetHistBuckets {
		t.Fatal("hour-scale latency overflows the histogram")
	}
}
