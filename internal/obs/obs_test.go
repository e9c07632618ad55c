package obs

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
)

// emitOneOfEach drives every emit helper once and returns the tracer.
func emitOneOfEach(t *Tracer) {
	t.Arrive(1*time.Second, 7, 42)
	dec := t.Decision(1*time.Second, 7, 42, 3, 1.25, 148.5, 2)
	t.Dispatch(1*time.Second, 7, 42, 3, dec)
	t.Queue(1*time.Second, 7, 3, 4, dec)
	t.Serve(2*time.Second, 7, 3)
	t.Complete(2*time.Second+5*time.Millisecond, 7, 3, 1*time.Second+5*time.Millisecond)
	t.Power(3*time.Second, 3, core.StateIdle, core.StateSpinDown, 27.9, 0.5, dec)
	t.Drop(4*time.Second, 8, 43)
	t.CacheHit(5*time.Second, 9, 44, 100*time.Microsecond)
	t.End(6*time.Second, 3, core.StateStandby, 3.75)
	t.RunEnd(6*time.Second, 12345)
}

// emitOneOfEachCount is the number of events emitOneOfEach produces.
const emitOneOfEachCount = 11

func TestTracerJSONLRoundTrip(t *testing.T) {
	t.Parallel()
	tr := NewTracer(64)
	emitOneOfEach(tr)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("JSONL round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestTracerBinaryRoundTrip(t *testing.T) {
	t.Parallel()
	tr := NewTracer(64)
	emitOneOfEach(tr)
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Events()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("binary round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestTracerFlightRecorderKeepsNewest(t *testing.T) {
	t.Parallel()
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Serve(time.Duration(i)*time.Second, core.RequestID(i), 0)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	for i, ev := range evs {
		if want := core.RequestID(6 + i); ev.Req != want {
			t.Fatalf("event %d: req %d, want %d", i, ev.Req, want)
		}
		if want := uint64(6 + i); ev.Seq != want {
			t.Fatalf("event %d: seq %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestTracerStreamingSinkLosesNothing(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	tr := NewTracer(2) // tiny ring forces mid-run flushes
	tr.SetSink(&buf, false)
	for i := 0; i < 7; i++ {
		tr.Serve(time.Duration(i)*time.Second, core.RequestID(i), 1)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 7 {
		t.Fatalf("streamed %d events, want 7", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d out of order: seq %d", i, ev.Seq)
		}
	}
	if tr.Dropped() != 0 {
		t.Fatalf("streaming tracer dropped %d events", tr.Dropped())
	}
}

func TestTracerStreamingBinarySink(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	tr := NewTracer(2)
	tr.SetSink(&buf, true)
	emitOneOfEach(tr)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != emitOneOfEachCount {
		t.Fatalf("streamed %d events, want %d", len(got), emitOneOfEachCount)
	}
}

// TestTracerSubscribersInOrder pins the subscriber contract: every
// subscriber sees every emitted event, with its sequence number already
// assigned, and subscribers run in subscription order for each event. A
// flight-recorder ring smaller than the run drops nothing from them, and a
// disabled tracer feeds them nothing.
func TestTracerSubscribersInOrder(t *testing.T) {
	t.Parallel()
	type call struct {
		sub int
		ev  Event
	}
	var calls []call
	tr := NewTracer(4)
	for i := 0; i < 3; i++ {
		tr.Subscribe(func(ev Event) { calls = append(calls, call{i, ev}) })
	}
	emitOneOfEach(tr)

	ref := NewTracer(64)
	emitOneOfEach(ref)
	want := ref.Events()
	if len(calls) != 3*len(want) {
		t.Fatalf("%d subscriber calls, want %d", len(calls), 3*len(want))
	}
	for i, c := range calls {
		if ev := want[i/3]; c.sub != i%3 || c.ev != ev || c.ev.Seq != uint64(i/3) {
			t.Fatalf("call %d: subscriber %d saw %+v, want subscriber %d to see %+v", i, c.sub, c.ev, i%3, ev)
		}
	}

	calls = nil
	tr.SetEnabled(false)
	emitOneOfEach(tr)
	if len(calls) != 0 {
		t.Fatalf("disabled tracer fed its subscribers %d events", len(calls))
	}
}

func TestTracerDisabledAndNilAllocateNothing(t *testing.T) {
	tr := NewTracer(16)
	tr.SetEnabled(false)
	var nilTr *Tracer
	for name, target := range map[string]*Tracer{"disabled": tr, "nil": nilTr} {
		allocs := testing.AllocsPerRun(100, func() {
			target.Arrive(time.Second, 1, 2)
			target.Power(time.Second, 0, core.StateIdle, core.StateActive, 1.0, 0, 0)
			target.Complete(time.Second, 1, 0, time.Millisecond)
		})
		if allocs != 0 {
			t.Errorf("%s tracer: %.0f allocs/op, want 0", name, allocs)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("disabled tracer buffered %d events", tr.Len())
	}
}

func TestTracerEnabledEmitDoesNotAllocate(t *testing.T) {
	tr := NewTracer(1 << 12)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Serve(time.Second, 1, 2)
	})
	if allocs != 0 {
		t.Errorf("enabled emit into ring: %.0f allocs/op, want 0", allocs)
	}
}

func TestTracerDeterministicBytes(t *testing.T) {
	t.Parallel()
	render := func() []byte {
		tr := NewTracer(64)
		emitOneOfEach(tr)
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs rendered different bytes:\n%s\nvs\n%s", a, b)
	}
}

func TestKindString(t *testing.T) {
	t.Parallel()
	if got := KindPower.String(); got != "power" {
		t.Fatalf("KindPower = %q", got)
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Fatalf("unknown kind = %q", got)
	}
}
