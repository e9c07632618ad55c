// Command bench is the repository's benchmark: it times what users of this
// reproduction actually wait for, checks that every output is correct, and
// prints each metric BENCHMARK.json declares, by name and with its unit.
//
// Three workloads, each run in fresh child processes so caches start cold:
//
//	paper-10k    cold `figures` regenerations (Figures 2-17) at 10k requests
//	fleet-20k    storage.RunFleet over 20,000 disks on the sharded kernel
//	serve-json   eschedd's default daemon, one JSON POST per request
//
// Run it from the repository root with `sh bench/run.sh [flags]` (which
// builds it into .bench_build/), or with `go -C bench run . [flags]`:
//
//	-workload W -seed N -seconds S -trace 0|1   one run, JSON result on the last line
//	-runs 5 [-json FILE]                        five passes over every workload, medians and quartiles
//	-trace 1                                    the traced run: per-layer metrics instead of end-to-end
//	-ladder                                     one micro-benchmark per layer
//	-compare A.json B.json                      verdicts between two run sets
//	-write-golden -seed N                       record golden outputs for seed N
//
// See bench/README.md for the workloads, metrics and their bounds.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// childTimeout bounds one child process; a run must end within 180 s.
const childTimeout = 170 * time.Second

// setupProbes is how many extra children measure process-start set-up for
// a workload whose set-up is process start alone (paper-10k).
const setupProbes = 10

type options struct {
	workload    string
	seed        int64
	seconds     int
	trace       bool
	runs        int
	jsonOut     string
	compare     bool
	ladder      bool
	writeGolden bool
	child       bool
	probe       bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "run only this workload (default: every workload in BENCHMARK.json)")
	fs.Int64Var(&o.seed, "seed", 1, "input seed; seed 2 is held out for checking claims")
	fs.IntVar(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds in BENCHMARK.json)")
	fs.IntVar(&trace, "trace", 0, "1 = the traced run: per-layer metrics instead of end-to-end ones")
	fs.IntVar(&o.runs, "runs", 1, "passes over the workloads, rotating their order each pass")
	fs.StringVar(&o.jsonOut, "json", "", "also write every run, the summary and the machine to this file")
	fs.BoolVar(&o.compare, "compare", false, "compare two -json run sets: -compare A.json B.json")
	fs.BoolVar(&o.ladder, "ladder", false, "run the per-layer micro-benchmarks")
	fs.BoolVar(&o.writeGolden, "write-golden", false, "record golden outputs of paper-10k and fleet-20k for -seed")
	fs.BoolVar(&o.child, "child", false, "internal: run one workload in this process")
	fs.BoolVar(&o.probe, "probe", false, "internal: with -child, exit as soon as set-up is done")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	sp, err := loadSpec(root)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if o.seconds == 0 {
		o.seconds = sp.RunSeconds
	}
	cfg := runConfig{
		seed:        o.seed,
		seconds:     time.Duration(o.seconds) * time.Second,
		trace:       o.trace,
		goldenDir:   filepath.Join(root, "bench", "golden"),
		writeGolden: o.writeGolden,
	}

	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two run-set files")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case fs.NArg() != 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	case o.child:
		return runChild(o, cfg, sp, stdout)
	case o.ladder:
		return ladderMode(o, stdout, stderr)
	}

	names, err := selectWorkloads(sp, o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.writeGolden {
		return writeGoldens(names, cfg, sp, stderr)
	}
	return runSet(o, cfg, sp, names, stdout, stderr)
}

func selectWorkloads(sp *spec, only string) ([]string, error) {
	var names []string
	for _, w := range sp.Workloads {
		if _, ok := workloadRuns[w.Name]; !ok {
			return nil, fmt.Errorf("%s declares workload %q, which this command does not implement", specFile, w.Name)
		}
		if only == "" || only == w.Name {
			names = append(names, w.Name)
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("unknown workload %q", only)
	}
	return names, nil
}

// runChild runs one workload in this process and prints its result as one
// JSON line for the parent.
func runChild(o options, cfg runConfig, sp *spec, stdout io.Writer) int {
	if _, ok := workloadRuns[o.workload]; !ok {
		return 2
	}
	var r *result
	if o.probe {
		r = &result{ReadyNS: time.Now().UnixNano()}
	} else {
		r = runWorkload(o.workload, cfg, sp)
	}
	if err := json.NewEncoder(stdout).Encode(r); err != nil {
		return 1
	}
	return 0
}

// child runs the command again as a child process for one workload run
// and returns its result, with spawn set to when the process was started.
func child(w string, cfg runConfig, probe bool) (r *result, spawn time.Time, err error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, spawn, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{"-child", "-workload", w, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.Itoa(int(cfg.seconds / time.Second)), "-trace", trace}
	if probe {
		args = append(args, "-probe")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	spawn = time.Now()
	if err := cmd.Run(); err != nil {
		return nil, spawn, fmt.Errorf("%s child: %w", w, err)
	}
	r = &result{}
	if err := json.Unmarshal(lastLine(out.Bytes()), r); err != nil {
		return nil, spawn, fmt.Errorf("%s child output: %w", w, err)
	}
	return r, spawn, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// measure performs one run of a workload and returns it with every metric
// its kind of run declares. A traced run first repeats the untraced run in
// one child, the baseline for trace.overhead_frac.
func measure(w string, cfg runConfig) (*result, error) {
	if !cfg.trace {
		return timed(w, cfg)
	}
	base := cfg
	base.trace = false
	b, _, err := child(w, base, false)
	if err != nil {
		return nil, err
	}
	r, _, err := child(w, cfg, false)
	if err != nil {
		return nil, err
	}
	r.Errors = append(b.Errors, r.Errors...)
	r.Attempted += b.Attempted
	r.Failed += b.Failed
	r.Metrics["trace.overhead_frac"] = 1 - r.Throughput/b.Throughput
	return r, nil
}

// timed performs one run with tracing off: one child, or for a workload in
// coldRepeat a fresh child per call while another fits in cfg.seconds.
// Each end-to-end metric is the median of its samples over the children.
func timed(w string, cfg runConfig) (*result, error) {
	run := &result{Metrics: map[string]float64{}}
	start := time.Now()
	for {
		r, spawn, err := child(w, cfg, false)
		if err != nil {
			return nil, err
		}
		last := time.Since(spawn)
		if r.ReadyNS != 0 {
			r.sample("setup_s", float64(r.ReadyNS-spawn.UnixNano())/1e9)
		}
		run.merge(r)
		if !coldRepeat[w] || time.Since(start)+last > cfg.seconds {
			break
		}
	}
	if coldRepeat[w] {
		// Set-up is process start: time it on a few more children that stop
		// where the workload's first call would begin.
		for i := 0; i < setupProbes; i++ {
			p, spawn, err := child(w, cfg, true)
			if err != nil {
				return nil, err
			}
			run.sample("setup_s", float64(p.ReadyNS-spawn.UnixNano())/1e9)
		}
	}
	run.setMedians()
	return run, nil
}

// runRecord is one run in a run set.
type runRecord struct {
	Workload  string             `json:"workload"`
	Pass      int                `json:"pass"`
	Seed      int64              `json:"seed"`
	Trace     bool               `json:"trace"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Errors    []string           `json:"errors,omitempty"`
}

// runSetFile is what -json writes and -compare reads.
type runSetFile struct {
	Machine machine                       `json:"machine"`
	Runs    []runRecord                   `json:"runs"`
	Summary map[string]map[string]summary `json:"summary"`
	Ladder  map[string]float64            `json:"ladder,omitempty"`
}

func runSet(o options, cfg runConfig, sp *spec, names []string, stdout, stderr io.Writer) int {
	m := newMachine(o)
	m.print(stdout)
	set := runSetFile{Machine: m, Summary: map[string]map[string]summary{}}
	ok := true
	for pass := 0; pass < o.runs; pass++ {
		for i := range names {
			w := names[(i+pass)%len(names)]
			rec := runRecord{Workload: w, Pass: pass + 1, Seed: cfg.seed, Trace: cfg.trace}
			r, err := measure(w, cfg)
			if err == nil {
				err = sp.checkNames(r.Metrics, cfg.trace)
			}
			if err != nil {
				rec.Errors = []string{err.Error()}
			} else {
				rec.Correct, rec.Attempted, rec.Failed = r.correct(), r.Attempted, r.Failed
				rec.Metrics, rec.Errors = r.Metrics, r.Errors
			}
			ok = ok && rec.Correct
			set.Runs = append(set.Runs, rec)
			fmt.Fprintf(stdout, "run %d/%d %-22s correct=%t attempted=%d failed=%d\n",
				pass+1, o.runs, w, rec.Correct, rec.Attempted, rec.Failed)
			for _, e := range rec.Errors {
				fmt.Fprintf(stdout, "  error: %s\n", e)
			}
		}
	}

	fmt.Fprintln(stdout, "summary (per-run values, median and quartiles):")
	for _, w := range names {
		set.Summary[w] = map[string]summary{}
		fmt.Fprintf(stdout, "%s\n", w)
		for _, ms := range sp.metrics(cfg.trace) {
			var values []float64
			for _, rec := range set.Runs {
				if v, have := rec.Metrics[ms.Name]; have && rec.Workload == w {
					values = append(values, v)
				}
			}
			if len(values) == 0 {
				continue
			}
			s := summarize(ms.Unit, values)
			set.Summary[w][ms.Name] = s
			writeSummary(stdout, ms.Name, s)
		}
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, set); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if len(names) == 1 {
		printResultLine(stdout, set.Runs, set.Summary[names[0]], ok)
	}
	if !ok {
		return 1
	}
	return 0
}

// printResultLine prints the one-line result: correctness, operation
// counts and each metric's median with its unit.
func printResultLine(w io.Writer, runs []runRecord, sums map[string]summary, ok bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: ok, Metrics: map[string]value{}}
	for _, r := range runs {
		line.Attempted += r.Attempted
		line.Failed += r.Failed
	}
	if line.Attempted == 0 {
		line.Attempted = 1 // a run that failed before sending anything
		line.Failed = 1
	}
	for name, s := range sums {
		line.Metrics[name] = value{s.Median, s.Unit}
	}
	data, _ := json.Marshal(line) // plain numbers and strings
	fmt.Fprintln(w, string(data))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeGoldens records the golden outputs of the selected workloads that
// have them, at cfg.seed, in this process.
func writeGoldens(names []string, cfg runConfig, sp *spec, stderr io.Writer) int {
	for _, w := range names {
		if w != "paper-10k" && w != "fleet-20k" {
			continue
		}
		c := cfg
		c.seconds = 0 // one fleet call is enough
		r := runWorkload(w, c, sp)
		if len(r.Errors) > 0 {
			fmt.Fprintf(stderr, "bench: %s: %s\n", w, strings.Join(r.Errors, "; "))
			return 1
		}
		fmt.Fprintf(stderr, "bench: wrote %s\n", goldenPath(cfg.goldenDir, w, cfg.seed))
	}
	return 0
}

func ladderMode(o options, stdout, stderr io.Writer) int {
	m := newMachine(o)
	m.print(stdout)
	fmt.Fprintln(stdout, "ladder (ns per op unless named otherwise, allocations per op):")
	values, err := runLadder(stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench: ladder:", err)
		return 1
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, runSetFile{Machine: m, Ladder: values}); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// compareFiles prints, for every workload × end-to-end metric both run sets
// hold, the two medians and quartiles and a verdict.
func compareFiles(sp *spec, pathA, pathB string, stdout, stderr io.Writer) int {
	var sets [2]runSetFile
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &sets[i])
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	fmt.Fprintf(stdout, "A: %s (%s)\nB: %s (%s)\n", pathA, sets[0].Machine.Commit, pathB, sets[1].Machine.Commit)
	fmt.Fprintf(stdout, "%-22s %-16s %-6s %-36s %-36s %s\n", "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "verdict")
	for _, w := range sp.Workloads {
		a, b := sets[0].Summary[w.Name], sets[1].Summary[w.Name]
		for _, m := range sp.EndToEnd {
			sa, okA := a[m.Name]
			sb, okB := b[m.Name]
			if !okA || !okB {
				continue
			}
			fmt.Fprintf(stdout, "%-22s %-16s %-6s %-36s %-36s %s\n", w.Name, m.Name, m.Unit,
				fmt.Sprintf("%s [%s, %s]", fmtVal(sa.Median), fmtVal(sa.Q1), fmtVal(sa.Q3)),
				fmt.Sprintf("%s [%s, %s]", fmtVal(sb.Median), fmtVal(sb.Q1), fmtVal(sb.Q3)),
				verdict(m, sa, sb))
		}
	}
	return 0
}

// machine records where and how a run set was measured.
type machine struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Runs       int    `json:"runs"`
	Trace      bool   `json:"trace"`
	Date       string `json:"date"`
}

func newMachine(o options) machine {
	return machine{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Seed:       o.seed,
		Seconds:    o.seconds,
		Runs:       o.runs,
		Trace:      o.trace,
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

func (m machine) print(w io.Writer) {
	fmt.Fprintf(w, "machine: commit %s, %s, nproc %d, GOMAXPROCS %d, cpu %q; seed %d, %d s per run, %d runs, trace %t\n",
		m.Commit, m.GoVersion, m.NumCPU, m.GOMAXPROCS, m.CPU, m.Seed, m.Seconds, m.Runs, m.Trace)
}

// commit is the VCS revision the binary was built from, as the Go
// toolchain stamped it ("unknown" outside a git checkout).
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
