// Command atyplint runs the repository's custom static analyzers plus a
// curated set of go vet passes over the given packages.
//
// Usage:
//
//	go run ./cmd/atyplint [flags] [packages]
//
// With no package arguments it analyzes ./.... Exit status is 1 when any
// diagnostic is reported, 2 on operational failure, 0 on a clean tree.
//
// Packages load in dependency order and each analyzer keeps a fact store
// across the whole run, so the interprocedural analyzers (nondet, ctxflow,
// errwrap, lockorder) see facts exported by the packages a package imports.
//
// The analyzers encode the invariants the paper's cluster algebra depends
// on (see DESIGN.md, "Static analysis & invariants"):
//
//	ctxflow           context-holding functions thread their ctx; no fresh contexts in libraries
//	errwrap           exported errors of contract packages are classifiable via errors.Is
//	featuremutation   SF/TF only written by the cluster package
//	floatcmp          no ==/!= on float severities or similarities
//	lockcheck         no lock copies, no Lock without Unlock
//	lockorder         no cycles in the interprocedural lock-acquisition graph
//	nondet            determinism roots never reach time, rand, env, or map order
//	rangedeterminism  no map-iteration order leaking into output
//	rawfswrite        no direct os writes outside the faultfs seam
//	rawlog            no log.Printf/fmt.Print* in commands outside olog
//	spanend           every obs.Start/StartAt span is ended or returned to the caller
//
// A finding can be suppressed — with a written justification — by a
// "//atyplint:ignore <analyzer> reason" comment on the same or preceding
// line. With -json, findings (including suppressed ones, marked) stream to
// stdout as one JSON array for CI artifacts; with -time, per-analyzer wall
// time goes to stderr.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"

	"github.com/cpskit/atypical/internal/analysis/ctxflow"
	"github.com/cpskit/atypical/internal/analysis/errwrap"
	"github.com/cpskit/atypical/internal/analysis/featuremutation"
	"github.com/cpskit/atypical/internal/analysis/floatcmp"
	"github.com/cpskit/atypical/internal/analysis/framework"
	"github.com/cpskit/atypical/internal/analysis/load"
	"github.com/cpskit/atypical/internal/analysis/lockcheck"
	"github.com/cpskit/atypical/internal/analysis/lockorder"
	"github.com/cpskit/atypical/internal/analysis/nondet"
	"github.com/cpskit/atypical/internal/analysis/rangedeterminism"
	"github.com/cpskit/atypical/internal/analysis/rawfswrite"
	"github.com/cpskit/atypical/internal/analysis/rawlog"
	"github.com/cpskit/atypical/internal/analysis/spanend"
)

// analyzers is the multichecker suite, alphabetical.
var analyzers = []*framework.Analyzer{
	ctxflow.Analyzer,
	errwrap.Analyzer,
	featuremutation.Analyzer,
	floatcmp.Analyzer,
	lockcheck.Analyzer,
	lockorder.Analyzer,
	nondet.Analyzer,
	rangedeterminism.Analyzer,
	rawfswrite.Analyzer,
	rawlog.Analyzer,
	spanend.Analyzer,
}

// vetPasses is the curated go vet subset run alongside the custom suite:
// the passes most relevant to the algebra (printf verbs in reports, copied
// locks vet can see that lockcheck's subset cannot, atomic misuse, tautological
// bool conditions, unkeyed composite literals).
var vetPasses = []string{"-printf", "-copylocks", "-atomic", "-bools", "-composites"}

// finding is one diagnostic; the JSON field names are the -json output
// contract consumed by CI (problem matcher + artifact).
type finding struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		list     = flag.Bool("list", false, "list analyzers and exit")
		only     = flag.String("only", "", "comma-separated analyzer names to run (default: all)")
		noVet    = flag.Bool("novet", false, "skip the curated go vet passes")
		jsonOut  = flag.Bool("json", false, "emit findings (including suppressed) as JSON on stdout")
		showTime = flag.Bool("time", false, "report per-analyzer wall time on stderr")
	)
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(os.Stdout, "%-18s %s\n", a.Name, firstLine(a.Doc))
		}
		return 0
	}

	selected := analyzers
	if *only != "" {
		selected = nil
		want := map[string]bool{}
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
		for _, a := range analyzers {
			if want[a.Name] {
				selected = append(selected, a)
				delete(want, a.Name)
			}
		}
		if len(want) > 0 {
			unknown := make([]string, 0, len(want))
			for name := range want {
				unknown = append(unknown, name)
			}
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "atyplint: unknown analyzer(s) %s\n", strings.Join(unknown, ", "))
			return 2
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// load.Packages returns `go list -deps` order: dependencies before
	// dependents, which the shared fact stores below rely on.
	pkgs, err := load.Packages("", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atyplint: %v\n", err)
		return 2
	}

	stores := map[*framework.Analyzer]*framework.FactStore{}
	for _, a := range selected {
		framework.RegisterFactTypes(a)
		stores[a] = framework.NewFactStore()
	}

	var findings []finding
	elapsed := map[string]time.Duration{}
	for _, pkg := range pkgs {
		sup := framework.CollectSuppressions(pkg.Fset, pkg.Syntax)
		for _, a := range selected {
			pass := &framework.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			pass.SetFacts(stores[a])
			name := a.Name
			pass.Report = func(d framework.Diagnostic) {
				p := pkg.Fset.Position(d.Pos)
				findings = append(findings, finding{
					File:       p.Filename,
					Line:       p.Line,
					Col:        p.Column,
					Analyzer:   name,
					Message:    d.Message,
					Suppressed: sup.Suppressed(pkg.Fset, name, d.Pos),
				})
			}
			start := time.Now()
			if _, err := a.Run(pass); err != nil {
				fmt.Fprintf(os.Stderr, "atyplint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
				return 2
			}
			if err := pass.FinishFacts(); err != nil {
				fmt.Fprintf(os.Stderr, "atyplint: %s on %s: %v\n", a.Name, pkg.PkgPath, err)
				return 2
			}
			elapsed[a.Name] += time.Since(start)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})

	active := 0
	for _, f := range findings {
		if !f.Suppressed {
			active++
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(os.Stderr, "atyplint: encoding findings: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			if f.Suppressed {
				continue
			}
			fmt.Fprintf(os.Stdout, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}

	if *showTime {
		names := make([]string, 0, len(elapsed))
		for name := range elapsed {
			names = append(names, name)
		}
		sort.Slice(names, func(i, j int) bool {
			if elapsed[names[i]] != elapsed[names[j]] {
				return elapsed[names[i]] > elapsed[names[j]]
			}
			return names[i] < names[j]
		})
		for _, name := range names {
			fmt.Fprintf(os.Stderr, "atyplint: %-18s %8.1fms\n",
				name, float64(elapsed[name].Microseconds())/1000)
		}
	}

	status := 0
	if active > 0 {
		fmt.Fprintf(os.Stderr, "atyplint: %d finding(s)\n", active)
		status = 1
	}

	if !*noVet {
		args := append(append([]string{"vet"}, vetPasses...), patterns...)
		cmd := exec.Command("go", args...)
		// In -json mode stdout must stay pure JSON; vet findings still fail
		// the run, they just land on stderr.
		if *jsonOut {
			cmd.Stdout = os.Stderr
		} else {
			cmd.Stdout = os.Stdout
		}
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "atyplint: go vet %s reported findings\n", strings.Join(vetPasses, " "))
			status = 1
		}
	}
	return status
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
