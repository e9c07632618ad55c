package main

import (
	"fmt"
	"runtime/metrics"
	"syscall"
	"time"
)

// runConfig is one run's input: everything a workload derives its inputs
// and its run length from.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// smoke shrinks every workload to test size (SmallScale paper sweep,
	// DefaultFleetConfig fleet, a shorter serving warm-up).
	smoke       bool
	goldenDir   string
	writeGolden bool
}

// result is what one child process reports to the parent.
type result struct {
	// ReadyNS is the wall clock (Unix ns) at which a workload whose only
	// set-up is process start made its first call; the parent turns it into
	// a set-up sample. Zero when the workload measures set-up in process.
	ReadyNS int64 `json:"ready_ns,omitempty"`
	// Samples holds every end-to-end metric's samples, one per measured
	// window or call; the parent reports each metric's median over all the
	// samples of a run's children.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Throughput is the run's end-to-end work rate, traced or not; the
	// parent compares traced against untraced for trace.overhead_frac.
	Throughput float64 `json:"throughput"`
	// Metrics holds a traced run's per-layer metrics.
	Metrics   map[string]float64 `json:"metrics"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
}

// merge adds another child's samples, counts and errors to r.
func (r *result) merge(o *result) {
	for name, xs := range o.Samples {
		for _, x := range xs {
			r.sample(name, x)
		}
	}
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Errors = append(r.Errors, o.Errors...)
}

// setMedians sets every end-to-end metric to the median of its samples.
func (r *result) setMedians() {
	for name, xs := range r.Samples {
		r.Metrics[name] = median(xs)
	}
}

func (r *result) fail(format string, args ...any) {
	r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.Errors) == 0 && r.Failed == 0 }

// sample adds one sample of an end-to-end metric.
func (r *result) sample(name string, v float64) {
	if r.Samples == nil {
		r.Samples = map[string][]float64{}
	}
	r.Samples[name] = append(r.Samples[name], v)
}

// sampleCalls adds the samples of one measured window (or one call): n
// items completed in wall time, over calls that callers waited callTime for
// in all, using cpu of process CPU time.
func (r *result) sampleCalls(n float64, wall time.Duration, calls int, callTime, cpu time.Duration) {
	r.sample("throughput", n/wall.Seconds())
	r.sample("latency_ms", ms(callTime)/float64(calls))
	r.sample("cpu_us_per_item", float64(cpu.Nanoseconds())/1e3/n)
}

// setRuntime records the Go runtime's own layer: garbage-collector CPU and
// bytes allocated over the whole process.
func (r *result) setRuntime() {
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	if samples[0].Value.Kind() == metrics.KindFloat64 {
		r.Metrics["runtime.gc_cpu_s"] = samples[0].Value.Float64()
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		r.Metrics["runtime.alloc_mb"] = float64(samples[1].Value.Uint64()) / (1 << 20)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// workloadRuns maps each workload of BENCHMARK.json to its run function.
var workloadRuns = map[string]func(runConfig, *result){
	"paper-10k":  runPaper,
	"fleet-20k":  runFleet,
	"serve-json": runServeJSON,
}

// coldRepeat names the workloads whose run is a sequence of fresh children,
// one cold call each, rather than one child that repeats its calls.
var coldRepeat = map[string]bool{"paper-10k": true}

// runWorkload runs one workload in this process. Traced runs start with
// every declared per-layer metric at zero: a layer the workload never
// reaches reads 0.
func runWorkload(name string, cfg runConfig, sp *spec) *result {
	r := &result{Metrics: map[string]float64{}}
	if cfg.trace {
		for _, m := range sp.PerLayer {
			r.Metrics[m.Name] = 0
		}
	}
	workloadRuns[name](cfg, r)
	if cfg.trace {
		r.setRuntime()
	}
	return r
}
