// Package trace reads and writes block-level I/O traces in the two formats
// used by the paper's evaluation (Section 4.1): the SPC format of the UMass
// repository (Financial1) and a whitespace text rendering of HP's SRT
// format (Cello). It also converts trace records into the simulator's
// request stream, reproducing the paper's preprocessing: writes are dropped
// (handled by write off-loading, Section 2.1) and each unique (device, LBA)
// pair becomes one block.
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
)

// Record is one trace line: a block I/O at a point in time.
type Record struct {
	Time   time.Duration
	Device int   // application storage unit / device number
	LBA    int64 // logical block address
	Size   int64 // bytes
	Write  bool
}

// ErrFormat reports a malformed trace line.
var ErrFormat = errors.New("trace: malformed record")

// ReadSPC parses the SPC trace format used by the UMass storage repository:
// comma-separated "ASU,LBA,Size,Opcode,Timestamp" lines, timestamps in
// seconds. Blank lines are skipped; any extra trailing fields are ignored
// (real SPC traces carry optional columns).
func ReadSPC(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		if len(fields) < 5 {
			return nil, fmt.Errorf("%w: line %d: want 5 comma-separated fields, got %d", ErrFormat, line, len(fields))
		}
		rec, err := parseSPCFields(fields)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading SPC: %w", err)
	}
	return recs, nil
}

func parseSPCFields(fields []string) (Record, error) {
	var rec Record
	asu, err := strconv.Atoi(strings.TrimSpace(fields[0]))
	if err != nil {
		return rec, fmt.Errorf("ASU: %v", err)
	}
	lba, err := strconv.ParseInt(strings.TrimSpace(fields[1]), 10, 64)
	if err != nil {
		return rec, fmt.Errorf("LBA: %v", err)
	}
	size, err := strconv.ParseInt(strings.TrimSpace(fields[2]), 10, 64)
	if err != nil {
		return rec, fmt.Errorf("size: %v", err)
	}
	op := strings.ToUpper(strings.TrimSpace(fields[3]))
	if op != "R" && op != "W" {
		return rec, fmt.Errorf("opcode %q", fields[3])
	}
	ts, err := strconv.ParseFloat(strings.TrimSpace(fields[4]), 64)
	if err != nil {
		return rec, fmt.Errorf("timestamp: %v", err)
	}
	if ts < 0 || size < 0 || lba < 0 || asu < 0 {
		return rec, fmt.Errorf("negative field in %v", fields[:5])
	}
	rec = Record{
		Time:   time.Duration(ts * float64(time.Second)),
		Device: asu,
		LBA:    lba,
		Size:   size,
		Write:  op == "W",
	}
	return rec, nil
}

// WriteSPC writes records in SPC format.
func WriteSPC(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		op := "R"
		if rec.Write {
			op = "W"
		}
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%s,%.6f\n",
			rec.Device, rec.LBA, rec.Size, op, rec.Time.Seconds()); err != nil {
			return fmt.Errorf("trace: writing SPC: %w", err)
		}
	}
	return bw.Flush()
}

// ReadCelloText parses the whitespace text rendering of HP SRT traces:
// "<seconds> <device> <lba> <bytes> <R|W>" per line. Lines starting with
// '#' are comments.
func ReadCelloText(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 5 {
			return nil, fmt.Errorf("%w: line %d: want 5 fields, got %d", ErrFormat, line, len(fields))
		}
		ts, err1 := strconv.ParseFloat(fields[0], 64)
		dev, err2 := strconv.Atoi(fields[1])
		lba, err3 := strconv.ParseInt(fields[2], 10, 64)
		size, err4 := strconv.ParseInt(fields[3], 10, 64)
		op := strings.ToUpper(fields[4])
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrFormat, line, err)
		}
		if op != "R" && op != "W" {
			return nil, fmt.Errorf("%w: line %d: opcode %q", ErrFormat, line, fields[4])
		}
		if ts < 0 || lba < 0 || size < 0 || dev < 0 {
			return nil, fmt.Errorf("%w: line %d: negative field", ErrFormat, line)
		}
		recs = append(recs, Record{
			Time:   time.Duration(ts * float64(time.Second)),
			Device: dev,
			LBA:    lba,
			Size:   size,
			Write:  op == "W",
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading cello text: %w", err)
	}
	return recs, nil
}

// WriteCelloText writes records in the text SRT rendering.
func WriteCelloText(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		op := "R"
		if rec.Write {
			op = "W"
		}
		if _, err := fmt.Fprintf(bw, "%.6f %d %d %d %s\n",
			rec.Time.Seconds(), rec.Device, rec.LBA, rec.Size, op); err != nil {
			return fmt.Errorf("trace: writing cello text: %w", err)
		}
	}
	return bw.Flush()
}

// ToRequests converts trace records into a simulator request stream sorted
// by time, with dense request IDs and dense BlockIDs assigned in order of
// first appearance of each unique (device, LBA) pair. Writes are dropped,
// as the paper does (they are handled by write off-loading), and the stream
// stops after maxRequests reads (0 = unlimited; the paper uses the first
// 70,000). It returns the stream and the number of distinct blocks.
func ToRequests(recs []Record, maxRequests int) ([]core.Request, int) {
	sorted := append([]Record(nil), recs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })

	type key struct {
		dev int
		lba int64
	}
	blocks := make(map[key]core.BlockID)
	var reqs []core.Request
	var start time.Duration
	first := true
	for _, rec := range sorted {
		if rec.Write {
			continue
		}
		if maxRequests > 0 && len(reqs) >= maxRequests {
			break
		}
		if first {
			start = rec.Time
			first = false
		}
		k := key{rec.Device, rec.LBA}
		b, ok := blocks[k]
		if !ok {
			b = core.BlockID(len(blocks))
			blocks[k] = b
		}
		reqs = append(reqs, core.Request{
			ID:      core.RequestID(len(reqs)),
			Block:   b,
			Arrival: rec.Time - start,
			Size:    rec.Size,
			LBA:     rec.LBA,
		})
	}
	return reqs, len(blocks)
}

// FromRequests renders a request stream back into trace records (all
// reads, device 0), enabling round-trips through the on-disk formats.
func FromRequests(reqs []core.Request) []Record {
	recs := make([]Record, len(reqs))
	for i, r := range reqs {
		recs[i] = Record{
			Time: r.Arrival,
			LBA:  r.LBA,
			Size: r.Size,
		}
	}
	return recs
}

// Format is an on-disk trace format.
type Format int

// The supported trace formats.
const (
	// FormatSPC is the UMass storage repository format (Financial1):
	// "ASU,LBA,Size,Opcode,Timestamp".
	FormatSPC Format = iota + 1
	// FormatCelloText is a whitespace text rendering of HP SRT traces:
	// "<seconds> <device> <lba> <bytes> <R|W>".
	FormatCelloText
)

// formats is the one table of trace formats: the name a -format flag
// gives each, and its record reader and writer.
var formats = [...]struct {
	name  string
	read  func(io.Reader) ([]Record, error)
	write func(io.Writer, []Record) error
}{
	FormatSPC:       {"spc", ReadSPC, WriteSPC},
	FormatCelloText: {"cellotext", ReadCelloText, WriteCelloText},
}

// ParseFormat returns the format a -format flag names: "spc" or
// "cellotext".
func ParseFormat(name string) (Format, error) {
	for f, e := range formats {
		if f > 0 && e.name == name {
			return Format(f), nil
		}
	}
	return 0, fmt.Errorf("unknown format %q", name)
}

func (f Format) valid() bool { return f > 0 && int(f) < len(formats) }

// LoadRequests parses a trace in format f and converts it to a request
// stream with ToRequests: writes dropped, each unique (device, LBA) pair
// one block, at most maxRequests reads (0 = all). It returns the stream
// and the number of distinct blocks.
func LoadRequests(r io.Reader, f Format, maxRequests int) ([]core.Request, int, error) {
	if !f.valid() {
		return nil, 0, fmt.Errorf("trace: unknown format %d", f)
	}
	recs, err := formats[f].read(r)
	if err != nil {
		return nil, 0, err
	}
	reqs, blocks := ToRequests(recs, maxRequests)
	return reqs, blocks, nil
}

// WriteRequests renders a request stream in format f (via FromRequests).
func WriteRequests(w io.Writer, f Format, reqs []core.Request) error {
	if !f.valid() {
		return fmt.Errorf("trace: unknown format %d", f)
	}
	return formats[f].write(w, FromRequests(reqs))
}
