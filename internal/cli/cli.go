// Package cli holds the conventions shared by every command in cmd/: a
// uniform usage banner, a uniform fatal-error format ("<name>: <error>"
// on stderr, exit 1), the size check every command makes (Geometry),
// the -policy help built from core.ByName's table (PolicyHelp), and the
// one input loader (Input) behind -workload, -trace, -scenario and
// -seed. The cmd smoke tests assert them.
package cli

import (
	"flag"
	"fmt"
	"os"
)

// SetUsage installs a uniform flag.Usage for the named command:
//
//	usage: <name> [flags]
//	  <synopsis>
//	<flag defaults>
func SetUsage(name, synopsis string) {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: %s [flags]\n  %s\n", name, synopsis)
		flag.PrintDefaults()
	}
}

// Fatal prints "<name>: <err>" to stderr and exits 1.
func Fatal(name string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
	os.Exit(1)
}

// Fatalf is Fatal with a formatted message.
func Fatalf(name, format string, args ...any) {
	Fatal(name, fmt.Errorf(format, args...))
}

// CheckWrite exits through Fatal when a final output write failed —
// the uniform way commands surface a full disk or closed pipe instead
// of silently truncating their report. what names the output (e.g.
// "stdout", a file path).
func CheckWrite(name, what string, err error) {
	if err != nil {
		Fatalf(name, "writing %s: %w", what, err)
	}
}
