package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/workload"
)

const spcSample = `0,20941264,8192,W,0.551706
0,20939840,8192,R,0.554041

1,3436288,15872,r,1.249948
`

func TestReadSPC(t *testing.T) {
	t.Parallel()
	recs, err := ReadSPC(strings.NewReader(spcSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3 (blank line skipped)", len(recs))
	}
	want := Record{
		Time: time.Duration(0.551706 * float64(time.Second)), Device: 0,
		LBA: 20941264, Size: 8192, Write: true,
	}
	if recs[0] != want {
		t.Errorf("first record = %+v, want %+v", recs[0], want)
	}
	if recs[2].Write {
		t.Error("lowercase 'r' parsed as write")
	}
	if recs[2].Device != 1 {
		t.Errorf("device = %d, want 1", recs[2].Device)
	}
}

func TestReadSPCIgnoresExtraColumns(t *testing.T) {
	t.Parallel()
	recs, err := ReadSPC(strings.NewReader("2,100,512,R,1.5,extra,columns\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].LBA != 100 {
		t.Errorf("recs = %+v", recs)
	}
}

func TestReadSPCErrors(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		line string
	}{
		{"too few fields", "1,2,3,R"},
		{"bad asu", "x,2,3,R,1.0"},
		{"bad lba", "1,x,3,R,1.0"},
		{"bad size", "1,2,x,R,1.0"},
		{"bad opcode", "1,2,3,Q,1.0"},
		{"bad timestamp", "1,2,3,R,x"},
		{"negative timestamp", "1,2,3,R,-1.0"},
	}
	for _, tc := range tests {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, err := ReadSPC(strings.NewReader(tc.line + "\n"))
			if !errors.Is(err, ErrFormat) {
				t.Errorf("err = %v, want ErrFormat", err)
			}
		})
	}
}

func TestReadCelloText(t *testing.T) {
	t.Parallel()
	in := `# device trace
0.5 3 1024 4096 R
1.25 4 2048 8192 W
`
	recs, err := ReadCelloText(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("parsed %d records, want 2", len(recs))
	}
	if recs[0].Device != 3 || recs[0].LBA != 1024 || recs[0].Write {
		t.Errorf("first = %+v", recs[0])
	}
	if !recs[1].Write {
		t.Error("W not parsed as write")
	}
}

func TestReadCelloTextErrors(t *testing.T) {
	t.Parallel()
	for _, line := range []string{"0.5 3 1024 4096", "x 3 1 1 R", "0.5 3 1 1 Z", "-1 3 1 1 R"} {
		if _, err := ReadCelloText(strings.NewReader(line + "\n")); !errors.Is(err, ErrFormat) {
			t.Errorf("line %q: err = %v, want ErrFormat", line, err)
		}
	}
}

func randomRecords(rng *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	now := time.Duration(0)
	for i := range recs {
		now += time.Duration(rng.Int63n(int64(time.Second)))
		recs[i] = Record{
			Time:   now,
			Device: rng.Intn(8),
			LBA:    rng.Int63n(1 << 30),
			Size:   int64(rng.Intn(1<<16) + 512),
			Write:  rng.Intn(2) == 0,
		}
	}
	return recs
}

// Property: write-then-read round-trips records through both formats
// (timestamps to microsecond precision).
func TestRoundTripProperty(t *testing.T) {
	t.Parallel()
	codecs := []struct {
		name  string
		write func(*bytes.Buffer, []Record) error
		read  func(*bytes.Buffer) ([]Record, error)
	}{
		{"spc",
			func(b *bytes.Buffer, r []Record) error { return WriteSPC(b, r) },
			func(b *bytes.Buffer) ([]Record, error) { return ReadSPC(b) }},
		{"cellotext",
			func(b *bytes.Buffer, r []Record) error { return WriteCelloText(b, r) },
			func(b *bytes.Buffer) ([]Record, error) { return ReadCelloText(b) }},
	}
	for _, codec := range codecs {
		codec := codec
		t.Run(codec.name, func(t *testing.T) {
			t.Parallel()
			f := func(seed int64, n uint8) bool {
				rng := rand.New(rand.NewSource(seed))
				recs := randomRecords(rng, int(n)%40+1)
				var buf bytes.Buffer
				if err := codec.write(&buf, recs); err != nil {
					return false
				}
				got, err := codec.read(&buf)
				if err != nil || len(got) != len(recs) {
					return false
				}
				for i := range recs {
					a, b := recs[i], got[i]
					if a.Device != b.Device || a.LBA != b.LBA || a.Size != b.Size || a.Write != b.Write {
						return false
					}
					if d := a.Time - b.Time; d < -time.Microsecond || d > time.Microsecond {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestToRequestsDropsWritesAndAssignsBlocks(t *testing.T) {
	t.Parallel()
	recs := []Record{
		{Time: 2 * time.Second, Device: 0, LBA: 100, Size: 512},
		{Time: 1 * time.Second, Device: 0, LBA: 200, Size: 512},
		{Time: 3 * time.Second, Device: 0, LBA: 100, Size: 512, Write: true},
		{Time: 4 * time.Second, Device: 0, LBA: 100, Size: 512},
		{Time: 5 * time.Second, Device: 1, LBA: 100, Size: 512},
	}
	reqs, blocks := ToRequests(recs, 0)
	if len(reqs) != 4 {
		t.Fatalf("requests = %d, want 4 (write dropped)", len(reqs))
	}
	if blocks != 3 {
		t.Fatalf("blocks = %d, want 3 unique (device,LBA) pairs", blocks)
	}
	// Sorted by time and rebased to the first read.
	if reqs[0].Arrival != 0 || reqs[0].LBA != 200 {
		t.Errorf("first request = %+v, want the t=1s read rebased to 0", reqs[0])
	}
	// Same (device,LBA) maps to the same block; different device differs.
	if reqs[1].Block != reqs[2].Block {
		t.Error("same (device,LBA) mapped to different blocks")
	}
	if reqs[3].Block == reqs[1].Block {
		t.Error("different devices share a block")
	}
	for i, r := range reqs {
		if int(r.ID) != i {
			t.Errorf("request %d has ID %d", i, r.ID)
		}
	}
}

func TestToRequestsLimitCountsReads(t *testing.T) {
	t.Parallel()
	recs := []Record{
		{Time: 1 * time.Second, LBA: 1, Size: 512, Write: true},
		{Time: 2 * time.Second, LBA: 2, Size: 512},
		{Time: 3 * time.Second, LBA: 3, Size: 512},
	}
	reqs, _ := ToRequests(recs, 1)
	if len(reqs) != 1 || reqs[0].LBA != 2 {
		t.Errorf("maxRequests 1: %+v", reqs)
	}
}

// TestRequestsRoundTripEveryFormat writes a generated stream in each
// format and loads it back: every read returns, and a format outside the
// table is rejected on both paths.
func TestRequestsRoundTripEveryFormat(t *testing.T) {
	t.Parallel()
	reqs := workload.FinancialLike(500, 200, 6)
	for _, name := range []string{"spc", "cellotext"} {
		f, err := ParseFormat(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteRequests(&buf, f, reqs); err != nil {
			t.Fatal(err)
		}
		loaded, blocks, err := LoadRequests(&buf, f, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(loaded) != 500 || blocks == 0 {
			t.Errorf("%s: loaded %d requests over %d blocks", name, len(loaded), blocks)
		}
	}
	if _, err := ParseFormat("nope"); err == nil || err.Error() != `unknown format "nope"` {
		t.Errorf("ParseFormat(nope) err = %v", err)
	}
	for _, f := range []Format{0, 9} {
		if _, _, err := LoadRequests(strings.NewReader(""), f, 0); err == nil {
			t.Errorf("LoadRequests accepted format %d", f)
		}
		if err := WriteRequests(io.Discard, f, nil); err == nil {
			t.Errorf("WriteRequests accepted format %d", f)
		}
	}
}

func TestFromRequestsRoundTrip(t *testing.T) {
	t.Parallel()
	recs := []Record{
		{Time: 1 * time.Second, LBA: 10, Size: 512},
		{Time: 2 * time.Second, LBA: 20, Size: 1024},
	}
	reqs, _ := ToRequests(recs, 0)
	back := FromRequests(reqs)
	if len(back) != 2 {
		t.Fatalf("len = %d", len(back))
	}
	if back[0].Time != 0 || back[1].Time != time.Second {
		t.Errorf("times = %v, %v (rebased)", back[0].Time, back[1].Time)
	}
	if back[0].LBA != 10 || back[1].LBA != 20 {
		t.Errorf("LBAs = %d, %d", back[0].LBA, back[1].LBA)
	}
}

func TestToRequestsEmpty(t *testing.T) {
	t.Parallel()
	reqs, blocks := ToRequests(nil, 0)
	if len(reqs) != 0 || blocks != 0 {
		t.Errorf("empty conversion: %v, %d", reqs, blocks)
	}
}
