// Command tracegen generates a synthetic block I/O trace (Cello-like or
// Financial1-like, Section 4.1) and writes it in SPC or SRT-text format,
// so external tools — or esched itself via -trace — can consume it.
//
//	tracegen -workload cello -n 70000 -blocks 30000 -format spc > cello.spc
//	tracegen -workload financial -o financial.spc.gz   # gzip-compressed
//
// Exit codes: 0 for success or -h, 1 for a failed write, 2 for a usage
// error.
package main

import (
	"compress/gzip"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError marks a command-line mistake; run maps it to exit code 2. An
// empty message means the flag set has already printed the diagnostics.
type usageError string

func (e usageError) Error() string { return string(e) }

// run is the command's entry point; see the package comment for its exit
// codes.
func run(args []string, stdout, stderr io.Writer) int {
	err := tracegen(args, stdout, stderr)
	var ue usageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		if ue != "" {
			fmt.Fprintln(stderr, "tracegen:", ue.Error())
		}
		return 2
	default:
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
}

func tracegen(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n        = fs.Int("n", 70000, "number of requests")
		blocks   = fs.Int("blocks", 30000, "number of unique blocks")
		seed     = fs.Int64("seed", 1, "random seed")
		workload = fs.String("workload", "cello", "cello | financial")
		format   = fs.String("format", "spc", "spc | cellotext")
		out      = fs.String("o", "-", "output file (- = stdout; a .gz name is gzip-compressed)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError("")
	}
	if *n < 0 {
		return usageError(fmt.Sprintf("-n must not be negative, got %d", *n))
	}
	if *blocks <= 0 {
		return usageError(fmt.Sprintf("-blocks must be positive, got %d", *blocks))
	}

	var reqs []repro.Request
	switch *workload {
	case "cello":
		reqs = repro.CelloLike(*n, *blocks, *seed)
	case "financial":
		reqs = repro.FinancialLike(*n, *blocks, *seed)
	default:
		return usageError(fmt.Sprintf("unknown workload %q", *workload))
	}

	var tf repro.TraceFormat
	switch *format {
	case "spc":
		tf = repro.FormatSPC
	case "cellotext":
		tf = repro.FormatCelloText
	default:
		return usageError(fmt.Sprintf("unknown format %q", *format))
	}

	if *out == "-" {
		return writeTrace(stdout, tf, reqs, false)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	err = writeTrace(f, tf, reqs, strings.HasSuffix(*out, ".gz"))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeTrace renders reqs to w (repro.WriteTrace buffers and flushes),
// gzip-compressed when gz is set. A failed gzip footer write is returned,
// so a truncated .gz never passes for a complete one.
func writeTrace(w io.Writer, tf repro.TraceFormat, reqs []repro.Request, gz bool) error {
	if !gz {
		return repro.WriteTrace(w, tf, reqs)
	}
	zw := gzip.NewWriter(w)
	if err := repro.WriteTrace(zw, tf, reqs); err != nil {
		return err
	}
	return zw.Close()
}
