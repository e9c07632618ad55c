// Package cli is the entry-point contract every binary under cmd/ shares:
// each has run(args, stdout, stderr) returning 0 for success or -h, 1 for
// a failed run and 2 for a usage error, with at most one "prog: message"
// line on stderr.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
)

// UsageError marks a command-line mistake; Exit maps it to exit code 2. An
// empty message means the diagnostics are already on stderr.
type UsageError string

func (e UsageError) Error() string { return string(e) }

// Usagef formats a UsageError.
func Usagef(format string, a ...any) error {
	return UsageError(fmt.Sprintf(format, a...))
}

// NewFlagSet returns a flag set that reports parse errors and -h output on
// stderr instead of exiting.
func NewFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// Parse parses args: -h returns flag.ErrHelp (exit 0), and any other parse
// failure is an empty UsageError, whose diagnostics fs has printed.
func Parse(fs *flag.FlagSet, args []string) error {
	err := fs.Parse(args)
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return err
	}
	return UsageError("")
}

// Exit maps the error of a run of prog to its exit code, printing the
// error, if it has a message, as one "prog: message" line on stderr.
func Exit(prog string, err error, stderr io.Writer) int {
	var ue UsageError
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
		return 0
	case errors.As(err, &ue):
		if ue != "" {
			fmt.Fprintln(stderr, prog+":", ue.Error())
		}
		return 2
	default:
		fmt.Fprintln(stderr, prog+":", err)
		return 1
	}
}
