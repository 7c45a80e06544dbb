// Command uavlint is the repo's multichecker: it runs the
// internal/analysis suite (detorder, floatcast, ctxthread, epochscratch,
// timenow, lockguard, golife, atomicwrite, errdrop, testonly) over the
// module and fails on any diagnostic. CI runs it in the static-analysis
// job; locally:
//
//	go run ./cmd/uavlint ./...
//
// testonly also loads, without analyzing them, the rest of the module and
// every module nested in it (bench/), because their references count.
//
// Exit status: 0 clean, 1 diagnostics reported, 2 usage or load failure.
// Suppress a sanctioned site with a //uavlint:allow <analyzer> -- reason
// comment (same line, line above, or function doc); see DESIGN.md §11, §16.
//
// -json prints the diagnostics as a JSON array (file/line/col/analyzer/
// message) for machine consumption — CI uploads it as an artifact on
// failure. -facts dumps the phase-one cross-function fact set instead of
// running the analyzers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"github.com/uav-coverage/uavnet/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiagnostic is the -json wire shape of one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("uavlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	dir := fs.String("C", ".", "directory to resolve package patterns from")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	factsOut := fs.Bool("facts", false, "dump the cross-function fact set and exit without running analyzers")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: uavlint [flags] [packages]\n\nRepo-specific analyzers enforcing determinism, context, float-safety,\nlock-guard, goroutine-lifecycle, durable-write and test-only-code\ninvariants (DESIGN.md §11, §16).\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := analysis.All()
	if *only != "" {
		var err error
		analyzers, err = analysis.ByName(strings.Split(*only, ","))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-13s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.LoadPackages(*dir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *factsOut {
		facts, err := analysis.ComputeFacts(pkgs)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		stdout.Write(facts.Encode())
		return 0
	}
	var users []*analysis.Package
	if slices.Contains(analyzers, analysis.TestOnly) {
		users, err = analysis.LoadUsers(*dir, patterns, pkgs)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	diags, _, err := analysis.RunPackages(pkgs, users, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *jsonOut {
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "uavlint: %d diagnostic(s)\n", len(diags))
		return 1
	}
	return 0
}
