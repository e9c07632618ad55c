package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// The parsers face arbitrary user-supplied files; they must return errors,
// never panic, and anything they accept must round-trip.

func FuzzReadSPC(f *testing.F) {
	f.Add(spcSample)
	f.Add("0,20939840,8192,R,0.554041\n")
	f.Add("1,2,3,W,4.5,extra\n")
	f.Add(",,,,\n")
	f.Add("\x00\xff")
	f.Fuzz(func(t *testing.T, input string) {
		recs, err := ReadSPC(strings.NewReader(input))
		if err != nil {
			return
		}
		// Accepted input: writing and re-reading must succeed and preserve
		// the record count.
		var buf bytes.Buffer
		if err := WriteSPC(&buf, recs); err != nil {
			t.Fatalf("WriteSPC on accepted records: %v", err)
		}
		again, err := ReadSPC(&buf)
		if err != nil {
			t.Fatalf("re-read of own output: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip count %d != %d", len(again), len(recs))
		}
	})
}

func FuzzReadCelloText(f *testing.F) {
	f.Add("0.5 3 1024 4096 R\n")
	f.Add("# comment\n1.25 4 2048 8192 W\n")
	f.Add("x y z w Q\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		recs, err := ReadCelloText(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteCelloText(&buf, recs); err != nil {
			t.Fatalf("WriteCelloText on accepted records: %v", err)
		}
		again, err := ReadCelloText(&buf)
		if err != nil {
			t.Fatalf("re-read of own output: %v", err)
		}
		if len(again) != len(recs) {
			t.Fatalf("round trip count %d != %d", len(again), len(recs))
		}
	})
}

func FuzzToRequests(f *testing.F) {
	f.Add(int64(5), int64(100), int64(512), false, uint8(3))
	f.Fuzz(func(t *testing.T, tm, lba, size int64, write bool, n uint8) {
		if tm < 0 || lba < 0 || size < 0 {
			return
		}
		recs := make([]Record, int(n)%16)
		for i := range recs {
			recs[i] = Record{
				Time:  timeDuration(tm * int64(i+1)),
				LBA:   lba + int64(i),
				Size:  size,
				Write: write && i%2 == 0,
			}
		}
		reqs, blocks := ToRequests(recs, 0)
		if blocks < 0 || len(reqs) > len(recs) {
			t.Fatalf("blocks=%d reqs=%d recs=%d", blocks, len(reqs), len(recs))
		}
		for i := 1; i < len(reqs); i++ {
			if reqs[i].Arrival < reqs[i-1].Arrival {
				t.Fatal("requests not sorted")
			}
		}
	})
}

// timeDuration converts a raw nanosecond count, clamping negatives.
func timeDuration(ns int64) time.Duration {
	if ns < 0 {
		return 0
	}
	return time.Duration(ns)
}
