package diskmodel

import (
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/power"
	"repro/internal/simkernel"
)

func TestMechValidate(t *testing.T) {
	t.Parallel()
	if err := Cheetah15K5().Validate(); err != nil {
		t.Fatalf("Cheetah15K5 invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*MechConfig)
	}{
		{"zero rpm", func(c *MechConfig) { c.RPM = 0 }},
		{"seek range inverted", func(c *MechConfig) { c.MaxSeek = c.MinSeek - 1 }},
		{"zero transfer", func(c *MechConfig) { c.TransferRate = 0 }},
		{"zero lba", func(c *MechConfig) { c.MaxLBA = 0 }},
		{"zero default io", func(c *MechConfig) { c.DefaultIO = 0 }},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c := Cheetah15K5()
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Errorf("Validate accepted %+v", c)
			}
		})
	}
}

func TestSeekTimeProfile(t *testing.T) {
	t.Parallel()
	c := Cheetah15K5()
	if got := c.SeekTime(100, 100); got != 0 {
		t.Errorf("zero-distance seek = %v", got)
	}
	full := c.SeekTime(0, c.MaxLBA)
	if full != c.MaxSeek {
		t.Errorf("full-stroke seek = %v, want %v", full, c.MaxSeek)
	}
	short := c.SeekTime(0, 1000)
	if short < c.MinSeek || short > full {
		t.Errorf("short seek %v outside [%v,%v]", short, c.MinSeek, full)
	}
	if got := c.SeekTime(-1, 5); got != c.MaxSeek {
		t.Errorf("unknown head position seek = %v, want max", got)
	}
	// Monotone in distance.
	prev := time.Duration(0)
	for _, dist := range []int64{0, 10, 1e4, 1e6, 1e8} {
		s := c.SeekTime(0, dist)
		if s < prev {
			t.Errorf("seek not monotone at distance %d", dist)
		}
		prev = s
	}
}

func TestServiceTimeComponents(t *testing.T) {
	t.Parallel()
	c := Cheetah15K5()
	// Same-track read of 512 KB: rotation/2 + transfer only.
	got := c.ServiceTime(100, 100, 512<<10)
	rot := time.Duration(60 / c.RPM / 2 * float64(time.Second))
	xfer := time.Duration(float64(512<<10) / c.TransferRate * float64(time.Second))
	want := rot + xfer
	if math.Abs(float64(got-want)) > float64(time.Microsecond) {
		t.Errorf("ServiceTime = %v, want %v", got, want)
	}
	// 15K RPM: half rotation is 2 ms.
	if rot != 2*time.Millisecond {
		t.Errorf("half rotation = %v, want 2ms", rot)
	}
	// Default size kicks in for size <= 0.
	if got := c.ServiceTime(0, 0, 0); got != c.ServiceTime(0, 0, c.DefaultIO) {
		t.Error("default size not applied")
	}
	// Service times are milliseconds-scale (paper Section 2.1).
	if got > 20*time.Millisecond {
		t.Errorf("service time %v implausibly large", got)
	}
}

func newTestDisk(t *testing.T, eng *simkernel.Engine, pcfg power.Config, policy power.Policy, onDone DoneFunc, opts Options) *Disk {
	t.Helper()
	d, err := New(1, Cheetah15K5(), pcfg, policy, eng, onDone, opts)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDiskLifecycleStandbyToStandby(t *testing.T) {
	t.Parallel()
	var eng simkernel.Engine
	pcfg := power.DefaultConfig()
	var doneAt time.Duration
	d := newTestDisk(t, &eng, pcfg, power.TwoCompetitive{Config: pcfg}, func(_ core.Request, at time.Duration) {
		doneAt = at
	}, Options{})

	eng.At(0, func(time.Duration) {
		d.Submit(core.Request{ID: 0, Block: 1, Arrival: 0, LBA: 100})
	})
	end := eng.Run()

	if d.State() != core.StateStandby {
		t.Errorf("final state = %v, want standby", d.State())
	}
	// Timeline: spin-up 10s, service (~ms), idle T_B, spin-down 4s.
	if doneAt < pcfg.SpinUpTime {
		t.Errorf("request completed at %v, before spin-up finished", doneAt)
	}
	wantEnd := pcfg.SpinUpTime + pcfg.Breakeven() + pcfg.SpinDownTime
	if end < wantEnd || end > wantEnd+time.Second {
		t.Errorf("run ended at %v, want about %v", end, wantEnd)
	}
	st := d.Close()
	if st.SpinUps != 1 || st.SpinDowns != 1 {
		t.Errorf("spin ops = %d/%d, want 1/1", st.SpinUps, st.SpinDowns)
	}
	if st.Served != 1 {
		t.Errorf("served = %d, want 1", st.Served)
	}
	if st.TimeIn[core.StateActive] <= 0 || st.TimeIn[core.StateActive] > 50*time.Millisecond {
		t.Errorf("active time = %v, want small positive", st.TimeIn[core.StateActive])
	}
}

func TestDiskBackToBackRequestsShareOneSpinUp(t *testing.T) {
	t.Parallel()
	var eng simkernel.Engine
	pcfg := power.DefaultConfig()
	served := 0
	d := newTestDisk(t, &eng, pcfg, power.TwoCompetitive{Config: pcfg}, func(core.Request, time.Duration) {
		served++
	}, Options{})

	for i := 0; i < 5; i++ {
		i := i
		eng.At(time.Duration(i)*time.Second, func(time.Duration) {
			d.Submit(core.Request{ID: core.RequestID(i), LBA: int64(i * 1000)})
		})
	}
	eng.Run()
	st := d.Close()
	if served != 5 {
		t.Fatalf("served = %d, want 5", served)
	}
	if st.SpinUps != 1 {
		t.Errorf("spin-ups = %d, want 1 (requests arrive within one active window)", st.SpinUps)
	}
}

func TestDiskIdleGapBeyondBreakevenSpinsDown(t *testing.T) {
	t.Parallel()
	var eng simkernel.Engine
	pcfg := power.DefaultConfig()
	d := newTestDisk(t, &eng, pcfg, power.TwoCompetitive{Config: pcfg}, nil, Options{})

	eng.At(0, func(time.Duration) { d.Submit(core.Request{ID: 0, LBA: 1}) })
	// Second request long after the breakeven window: disk must have spun
	// down and back up.
	gap := pcfg.SpinUpTime + pcfg.Breakeven() + pcfg.SpinDownTime + time.Minute
	eng.At(gap, func(time.Duration) { d.Submit(core.Request{ID: 1, LBA: 2}) })
	eng.Run()
	st := d.Close()
	if st.SpinUps != 2 || st.SpinDowns != 2 {
		t.Errorf("spin ops = %d/%d, want 2/2", st.SpinUps, st.SpinDowns)
	}
	if st.TimeIn[core.StateStandby] <= 0 {
		t.Error("no standby time despite long gap")
	}
}

func TestDiskRequestDuringSpinDownTriggersImmediateSpinUp(t *testing.T) {
	t.Parallel()
	var eng simkernel.Engine
	pcfg := power.DefaultConfig()
	var completions []time.Duration
	d := newTestDisk(t, &eng, pcfg, power.TwoCompetitive{Config: pcfg}, func(_ core.Request, at time.Duration) {
		completions = append(completions, at)
	}, Options{})

	eng.At(0, func(time.Duration) { d.Submit(core.Request{ID: 0, LBA: 1}) })
	// Arrive mid-spin-down: after first service + breakeven + half of
	// spin-down.
	midDown := pcfg.SpinUpTime + 50*time.Millisecond + pcfg.Breakeven() + pcfg.SpinDownTime/2
	eng.At(midDown, func(time.Duration) { d.Submit(core.Request{ID: 1, LBA: 2}) })
	eng.Run()
	st := d.Close()
	if len(completions) != 2 {
		t.Fatalf("completions = %d, want 2", len(completions))
	}
	// The second request waits for spin-down to finish plus a full spin-up.
	if completions[1] < midDown+pcfg.SpinUpTime {
		t.Errorf("second completion %v too early (no spin-up penalty)", completions[1])
	}
	if st.SpinUps != 2 {
		t.Errorf("spin-ups = %d, want 2", st.SpinUps)
	}
	if st.TimeIn[core.StateStandby] != 0 {
		t.Errorf("standby time = %v, want 0 (spin-down chained straight into spin-up)", st.TimeIn[core.StateStandby])
	}
}

func TestDiskAlwaysOnNeverSpinsDown(t *testing.T) {
	t.Parallel()
	var eng simkernel.Engine
	pcfg := power.DefaultConfig()
	d := newTestDisk(t, &eng, pcfg, power.AlwaysOn{}, nil, Options{InitialState: core.StateIdle})
	eng.At(0, func(time.Duration) { d.Submit(core.Request{ID: 0, LBA: 1}) })
	eng.RunUntil(time.Hour)
	st := d.Close()
	if st.SpinUps != 0 || st.SpinDowns != 0 {
		t.Errorf("spin ops = %d/%d, want 0/0", st.SpinUps, st.SpinDowns)
	}
	if d.State() != core.StateIdle {
		t.Errorf("state = %v, want idle", d.State())
	}
	wantIdle := time.Hour - st.TimeIn[core.StateActive]
	if st.TimeIn[core.StateIdle] != wantIdle {
		t.Errorf("idle time = %v, want %v", st.TimeIn[core.StateIdle], wantIdle)
	}
}

func TestDiskLoadAndLastRequestTime(t *testing.T) {
	t.Parallel()
	var eng simkernel.Engine
	pcfg := power.DefaultConfig()
	d := newTestDisk(t, &eng, pcfg, power.TwoCompetitive{Config: pcfg}, nil, Options{})
	if _, ok := d.LastRequestTime(); ok {
		t.Error("LastRequestTime ok before any request")
	}
	eng.At(time.Second, func(time.Duration) {
		d.Submit(core.Request{ID: 0, LBA: 1})
		d.Submit(core.Request{ID: 1, LBA: 2})
		if d.Load() != 2 {
			t.Errorf("Load during spin-up = %d, want 2", d.Load())
		}
	})
	eng.At(time.Second+pcfg.SpinUpTime+time.Millisecond, func(time.Duration) {
		// One request is now in service, one queued.
		if d.Load() != 2 {
			t.Errorf("Load mid-service = %d, want 2", d.Load())
		}
	})
	eng.Run()
	if last, ok := d.LastRequestTime(); !ok || last != time.Second {
		t.Errorf("LastRequestTime = %v,%v, want 1s,true", last, ok)
	}
	if d.Load() != 0 {
		t.Errorf("Load after drain = %d, want 0", d.Load())
	}
}

func TestDiskFIFOOrder(t *testing.T) {
	t.Parallel()
	var eng simkernel.Engine
	pcfg := power.DefaultConfig()
	var order []core.RequestID
	d := newTestDisk(t, &eng, pcfg, power.TwoCompetitive{Config: pcfg}, func(r core.Request, _ time.Duration) {
		order = append(order, r.ID)
	}, Options{})
	eng.At(0, func(time.Duration) {
		for i := 0; i < 4; i++ {
			d.Submit(core.Request{ID: core.RequestID(i), LBA: int64(1000 * i)})
		}
	})
	eng.Run()
	for i, id := range order {
		if id != core.RequestID(i) {
			t.Fatalf("service order = %v, want FIFO", order)
		}
	}
}

func TestDiskEnergyMatchesAnalyticSingleCycle(t *testing.T) {
	t.Parallel()
	var eng simkernel.Engine
	pcfg := power.DefaultConfig()
	d := newTestDisk(t, &eng, pcfg, power.TwoCompetitive{Config: pcfg}, nil, Options{})
	eng.At(0, func(time.Duration) { d.Submit(core.Request{ID: 0, LBA: 1, Size: 512 << 10}) })
	eng.Run()
	st := d.Close()
	active := st.TimeIn[core.StateActive].Seconds()
	want := pcfg.SpinUpEnergy + // spin-up
		active*pcfg.ActivePower + // service
		pcfg.Breakeven().Seconds()*pcfg.IdlePower + // breakeven idle
		pcfg.SpinDownEnergy // spin-down
	if math.Abs(st.Energy-want) > 1e-6*want {
		t.Errorf("energy = %.3f J, want %.3f J", st.Energy, want)
	}
}

func TestDiskStatsStandbyFraction(t *testing.T) {
	t.Parallel()
	var s Stats
	s.TimeIn[core.StateStandby] = 30 * time.Second
	s.TimeIn[core.StateIdle] = 70 * time.Second
	if got := s.StandbyFraction(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("StandbyFraction = %v, want 0.3", got)
	}
	var empty Stats
	if empty.StandbyFraction() != 0 {
		t.Error("empty stats fraction != 0")
	}
}

func TestDiskClosePanicsWithOutstandingWork(t *testing.T) {
	t.Parallel()
	var eng simkernel.Engine
	pcfg := power.DefaultConfig()
	d := newTestDisk(t, &eng, pcfg, power.TwoCompetitive{Config: pcfg}, nil, Options{})
	eng.At(0, func(time.Duration) {
		d.Submit(core.Request{ID: 0, LBA: 1})
		defer func() {
			if recover() == nil {
				t.Error("Close with queued work did not panic")
			}
		}()
		d.Close()
	})
	eng.Run()
}

func TestDiskRejectsInvalidConfigs(t *testing.T) {
	t.Parallel()
	var eng simkernel.Engine
	bad := Cheetah15K5()
	bad.RPM = 0
	if _, err := New(0, bad, power.DefaultConfig(), power.AlwaysOn{}, &eng, nil, Options{}); err == nil {
		t.Error("New accepted invalid mechanics")
	}
	badPower := power.DefaultConfig()
	badPower.IdlePower = -1
	if _, err := New(0, Cheetah15K5(), badPower, power.AlwaysOn{}, &eng, nil, Options{}); err == nil {
		t.Error("New accepted invalid power config")
	}
	if _, err := New(0, Cheetah15K5(), power.DefaultConfig(), power.AlwaysOn{}, &eng, nil, Options{InitialState: core.StateActive}); err == nil {
		t.Error("New accepted active initial state")
	}
}
