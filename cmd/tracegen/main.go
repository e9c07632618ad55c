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
	"io"
	"os"
	"strings"

	"repro/cmd/internal/cli"
	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command's entry point; see the package comment for its exit
// codes.
func run(args []string, stdout, stderr io.Writer) int {
	return cli.Exit("tracegen", tracegen(args, stdout, stderr), stderr)
}

func tracegen(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("tracegen", stderr)
	var (
		n      = fs.Int("n", 70000, "number of requests")
		blocks = fs.Int("blocks", 30000, "number of unique blocks")
		seed   = fs.Int64("seed", 1, "random seed")
		wl     = fs.String("workload", "cello", "cello | financial")
		format = fs.String("format", "spc", "spc | cellotext")
		out    = fs.String("o", "-", "output file (- = stdout; a .gz name is gzip-compressed)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *n < 0 {
		return cli.Usagef("-n must not be negative, got %d", *n)
	}
	if *blocks <= 0 {
		return cli.Usagef("-blocks must be positive, got %d", *blocks)
	}

	var reqs []core.Request
	switch *wl {
	case "cello":
		reqs = workload.CelloLike(*n, *blocks, *seed)
	case "financial":
		reqs = workload.FinancialLike(*n, *blocks, *seed)
	default:
		return cli.Usagef("unknown workload %q", *wl)
	}

	tf, err := trace.ParseFormat(*format)
	if err != nil {
		return cli.UsageError(err.Error())
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

// writeTrace renders reqs to w (trace.WriteRequests buffers and flushes),
// gzip-compressed when gz is set. A failed gzip footer write is returned,
// so a truncated .gz never passes for a complete one.
func writeTrace(w io.Writer, tf trace.Format, reqs []core.Request, gz bool) error {
	if !gz {
		return trace.WriteRequests(w, tf, reqs)
	}
	zw := gzip.NewWriter(w)
	if err := trace.WriteRequests(zw, tf, reqs); err != nil {
		return err
	}
	return zw.Close()
}
