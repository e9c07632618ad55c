// Package flight implements the always-on flight recorder: a fixed-size
// ring of the most recent canonical events, written inline by a tracer
// subscriber at ring-slot cost, plus a trigger/dump protocol that
// freezes the window into a replayable ESCHOBS2 snapshot the moment
// something goes wrong — an SLO breach, a doctor violation, a queue-full
// spike, or an operator SIGQUIT. The dump bundles the event window with an
// engine-telemetry snapshot and optional pprof profiles, so the last
// seconds before an incident are always reconstructable without having
// traced the whole run.
//
// Threading: Observe, DumpNow and MaybeDump belong to the goroutine that
// drives the simulation (the same one the tracer's observer runs on).
// RequestDump is the only cross-goroutine entry point — it publishes the
// trigger atomically and the owner goroutine materialises the dump at its
// next MaybeDump call.
package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// DefaultCapacity is the ring size when Config.Capacity is zero: at 84
// bytes per encoded event this keeps a dump's events.bin under ~6 MB.
const DefaultCapacity = 1 << 16

// Config configures a Recorder.
type Config struct {
	// Capacity is the ring size in events (DefaultCapacity if zero).
	Capacity int
	// Dir is the directory dumps are written under (one flight-NNN-reason
	// subdirectory per dump). Required before the first dump.
	Dir string
	// Pprof bundles goroutine and heap profiles into each dump.
	Pprof bool
	// Telemetry, when set, is snapshotted at dump time and JSON-encoded
	// into the dump's telemetry.json (typically a *simkernel.KernelStats).
	Telemetry func() any
}

// Recorder is the flight-recorder ring. The zero value is not usable; call
// New.
type Recorder struct {
	cfg     Config
	ring    []obs.Event
	next    int
	wrapped bool
	total   uint64
	dumps   int
	lastErr error
	pending atomic.Pointer[string]
}

// New builds a recorder. It does not touch the filesystem until a dump
// triggers.
func New(cfg Config) *Recorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	return &Recorder{cfg: cfg, ring: make([]obs.Event, cfg.Capacity)}
}

// SetTelemetry installs (or replaces) the telemetry snapshot source. Call
// before the recorder is attached to a run: the function executes on the
// dump-writing goroutine, so it must only read state owned by that
// goroutine (e.g. the engine's kernel counters).
func (r *Recorder) SetTelemetry(fn func() any) { r.cfg.Telemetry = fn }

// Observe appends one event to the ring, overwriting the oldest once full.
// One slot store per event, no allocation.
func (r *Recorder) Observe(ev obs.Event) {
	r.ring[r.next] = ev
	r.next++
	r.total++
	if r.next == len(r.ring) {
		r.next = 0
		r.wrapped = true
	}
}

// Events returns the total number of events observed so far.
func (r *Recorder) Events() uint64 { return r.total }

// Dumps returns the number of dumps written so far.
func (r *Recorder) Dumps() int { return r.dumps }

// RequestDump publishes a dump trigger. Safe to call from any goroutine
// (signal handlers included); the owner goroutine writes the dump at its
// next MaybeDump. Later requests before that point overwrite the reason.
func (r *Recorder) RequestDump(reason string) { r.pending.Store(&reason) }

// Pending reports whether a dump trigger is waiting.
func (r *Recorder) Pending() bool { return r.pending.Load() != nil }

// MaybeDump consumes a pending trigger, if any, and writes the dump. It
// returns the dump directory, or "" when no trigger was pending.
func (r *Recorder) MaybeDump() (string, error) {
	reason := r.pending.Swap(nil)
	if reason == nil {
		return "", nil
	}
	return r.DumpNow(*reason)
}

// Err returns the most recent dump-write failure, if any. The observer
// chain writes dumps inline and cannot surface errors; entry points check
// Err at drain time.
func (r *Recorder) Err() error { return r.lastErr }

// Meta is the dump manifest written to meta.json.
type Meta struct {
	Reason     string    `json:"reason"`
	CapturedAt time.Time `json:"captured_at"`
	Events     int       `json:"events"`
	Observed   uint64    `json:"events_observed"`
	Wrapped    bool      `json:"wrapped"`
	FirstSeq   uint64    `json:"first_seq"`
	LastSeq    uint64    `json:"last_seq"`
	Goroutines int       `json:"goroutines"`
}

// DumpNow freezes the ring and writes a dump directory under Config.Dir:
// events.bin (the window as a standard ESCHOBS2 log, oldest first),
// meta.json (trigger, window bounds), telemetry.json (when a Telemetry
// snapshot is configured) and, with Pprof, goroutine.txt and heap.pprof.
// Call from the owner goroutine only.
func (r *Recorder) DumpNow(reason string) (dir string, err error) {
	defer func() {
		if err != nil {
			r.lastErr = err
		}
	}()
	if r.cfg.Dir == "" {
		return "", fmt.Errorf("flight: no dump directory configured")
	}
	r.dumps++
	dir = filepath.Join(r.cfg.Dir, fmt.Sprintf("flight-%03d-%s", r.dumps, sanitizeReason(reason)))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("flight: %w", err)
	}

	evs := r.window()
	buf := make([]byte, 0, len(obs.BinaryMagic)+84*len(evs))
	buf = append(buf, obs.BinaryMagic...)
	for _, ev := range evs {
		buf = obs.AppendBinary(buf, ev)
	}
	if err := os.WriteFile(filepath.Join(dir, "events.bin"), buf, 0o644); err != nil {
		return "", fmt.Errorf("flight: %w", err)
	}

	meta := Meta{
		Reason:     reason,
		CapturedAt: time.Now().UTC(),
		Events:     len(evs),
		Observed:   r.total,
		Wrapped:    r.wrapped,
		Goroutines: runtime.NumGoroutine(),
	}
	if len(evs) > 0 {
		meta.FirstSeq, meta.LastSeq = evs[0].Seq, evs[len(evs)-1].Seq
	}
	if err := writeJSON(filepath.Join(dir, "meta.json"), meta); err != nil {
		return "", err
	}
	if r.cfg.Telemetry != nil {
		if snap := r.cfg.Telemetry(); snap != nil {
			if err := writeJSON(filepath.Join(dir, "telemetry.json"), snap); err != nil {
				return "", err
			}
		}
	}
	if r.cfg.Pprof {
		if err := writeProfiles(dir); err != nil {
			return "", err
		}
	}
	return dir, nil
}

// window returns the ring's events oldest-first.
func (r *Recorder) window() []obs.Event {
	if !r.wrapped {
		return r.ring[:r.next]
	}
	out := make([]obs.Event, 0, len(r.ring))
	out = append(out, r.ring[r.next:]...)
	return append(out, r.ring[:r.next]...)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	return nil
}

func writeProfiles(dir string) error {
	g, err := os.Create(filepath.Join(dir, "goroutine.txt"))
	if err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	defer g.Close()
	if err := pprof.Lookup("goroutine").WriteTo(g, 1); err != nil {
		return fmt.Errorf("flight: goroutine profile: %w", err)
	}
	h, err := os.Create(filepath.Join(dir, "heap.pprof"))
	if err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	defer h.Close()
	if err := pprof.Lookup("heap").WriteTo(h, 0); err != nil {
		return fmt.Errorf("flight: heap profile: %w", err)
	}
	return nil
}

// sanitizeReason maps an arbitrary trigger string onto a filesystem-safe
// slug: lowercase alphanumerics and dashes, at most 40 bytes.
func sanitizeReason(reason string) string {
	var b strings.Builder
	dash := true // suppress leading dashes
	for _, c := range strings.ToLower(reason) {
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			b.WriteRune(c)
			dash = false
		case !dash:
			b.WriteByte('-')
			dash = true
		}
		if b.Len() >= 40 {
			break
		}
	}
	s := strings.TrimRight(b.String(), "-")
	if s == "" {
		return "manual"
	}
	return s
}
