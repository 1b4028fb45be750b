// Command sketchlint runs the repo's custom static analyzers — lock
// scope, overflow, pool ownership, goroutine liveness, decoder
// allocation and error contracts — over the packages matching the
// given go-list patterns.
//
// Usage:
//
//	go run ./cmd/sketchlint ./...
//	go run ./cmd/sketchlint -analyzers poolown,ctxleak ./internal/serve
//	go run ./cmd/sketchlint -list
//
// It exits 1 if any analyzer reports a finding, 2 on usage or load
// errors. Findings are printed one per line as
// "file:line:col: [analyzer] message". A finding can be suppressed
// with a trailing or preceding comment:
//
//	//sketchlint:ignore <analyzer>[,<analyzer>] -- <reason>
//
// The reason is mandatory; a bare or reasonless directive suppresses
// nothing and is itself reported. See docs/LINTING.md for what each
// analyzer enforces and the mutation that earned it its place.
package main

import (
	"flag"
	"fmt"
	"os"

	"skimsketch/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("sketchlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the available analyzers and exit")
	analyzers := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: sketchlint [-list] [-analyzers a,b] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	selected, err := lint.ByName(*analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.LoadPackages(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, lint.Run(pkg, selected)...)
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "sketchlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
