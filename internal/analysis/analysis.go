// Package analysis implements ompss-lint: a suite of static analyzers
// that mechanically enforce the determinism and concurrency invariants
// the runtime's bit-identical-replay guarantee rests on (DESIGN.md §9).
//
// The vocabulary (Analyzer, Pass, Diagnostic) deliberately mirrors
// golang.org/x/tools/go/analysis so the passes could be ported to the
// real framework verbatim, but the implementation is dependency-free:
// packages are parsed with go/parser and type-checked with go/types,
// standard-library imports are satisfied from the go command's compiled
// export data (see load.go), and nothing outside the standard library
// is required.
//
// The shipped analyzers:
//
//   - detwallclock: no wall-clock time or unseeded randomness in
//     simulator code; virtual time and seeded generators only.
//   - detmaprange: no ranging over maps in simulator code; Go map
//     iteration order is deliberately randomized and anything it leaks
//     into (schedules, traces, checksums) breaks replay.
//   - simblocking: no nested or unbounded blocking into the sim engine
//     while holding an acquired sim.Resource, and no blocking at all in
//     the engine's inline-callback contexts (Engine.After,
//     Event.OnTrigger) — the deadlock shapes the virtual-clock engine
//     cannot detect at runtime.
//   - tracepair: every trace span opened with Recorder.Begin is closed
//     on all paths.
//   - ompssdirective: every //ompss: suppression directive is known,
//     backed by a registered analyzer, and carries a reason.
//   - depverify (interprocedural): every region a task body reads or
//     writes through store.Bytes is covered by a matching In/Out/InOut/
//     Reduction clause at the submission site, and every declared clause
//     is actually used by the body (an unused clause serializes tasks
//     for nothing).
//
// There is no lock analyzer: outside internal/serve, internal/bench's
// grid pool and this package nothing under internal/ has a second thread
// to lock against, and serve has one mutex, so lock order is vacuous.
// sim.TestOneThreadOfControlByStructure holds both facts.
//
// Findings are suppressed per line with `//ompss:<kind> <reason>`; a
// directive without a reason is itself a finding. Suppressed findings
// are still recorded (Diagnostic.Suppressed) so machine consumers can
// audit the escape hatch; only unsuppressed findings fail the gate.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis pass. Exactly one of Run
// (per-package) and RunModule (whole-module, for interprocedural passes
// whose facts cross package boundaries) is set.
type Analyzer struct {
	// Name identifies the pass in diagnostics and suppression docs.
	Name string
	// Doc is a one-paragraph description of what the pass enforces.
	Doc string
	// Run applies the pass to one type-checked package.
	Run func(*Pass) error
	// RunModule applies the pass once to the whole package set. Used by
	// depverify, whose function summaries must cross package boundaries.
	RunModule func(*ModulePass) error
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Kind is the suppression-directive kind that can silence this
	// finding ("" when the finding is not suppressible).
	Kind string
	// Suppressed marks a finding covered by a reasoned //ompss:<kind>
	// directive. Suppressed findings are recorded for auditability (the
	// -json output carries them) but do not fail the gate.
	Suppressed bool
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Unsuppressed filters diags down to the findings that fail the gate.
func Unsuppressed(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// A Pass connects an Analyzer to one package and collects its findings.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// directives indexes every //ompss: directive of the package by
	// file and line.
	directives map[string]map[int][]Directive
	diags      *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportSuppressible records a finding silenceable by kind. The finding
// is always recorded; a covering reasoned directive only marks it
// Suppressed, so the -json output can audit the escape hatch.
func (p *Pass) ReportSuppressible(kind string, pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:        p.Fset.Position(pos),
		Analyzer:   p.Analyzer.Name,
		Message:    fmt.Sprintf(format, args...),
		Kind:       kind,
		Suppressed: p.Suppressed(kind, pos),
	})
}

// Suppressed reports whether a `//ompss:<kind> <reason>` directive with a
// nonempty reason covers pos: on the same line (trailing comment) or on
// the line immediately above. Reasonless directives never suppress — they
// are themselves findings (see the ompssdirective analyzer).
func (p *Pass) Suppressed(kind string, pos token.Pos) bool {
	return suppressedIn(p.directives, p.Fset, kind, pos)
}

func suppressedIn(directives map[string]map[int][]Directive, fset *token.FileSet, kind string, pos token.Pos) bool {
	position := fset.Position(pos)
	byLine := directives[position.Filename]
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, d := range byLine[line] {
			if d.Kind == kind && d.Reason != "" {
				return true
			}
		}
	}
	return false
}

// A ModulePass connects a module-level Analyzer to the whole package set.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkgs are the analyzed packages, sorted by import path.
	Pkgs []*Package

	directives map[string]map[int][]Directive
	diags      *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportSuppressible records a finding silenceable by kind (see
// Pass.ReportSuppressible).
func (p *ModulePass) ReportSuppressible(kind string, pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:        p.Fset.Position(pos),
		Analyzer:   p.Analyzer.Name,
		Message:    fmt.Sprintf(format, args...),
		Kind:       kind,
		Suppressed: p.Suppressed(kind, pos),
	})
}

// Suppressed reports whether a reasoned directive of kind covers pos.
func (p *ModulePass) Suppressed(kind string, pos token.Pos) bool {
	return suppressedIn(p.directives, p.Fset, kind, pos)
}

// scopedPkgs are the runtime packages whose code feeds schedules, traces
// and checksums; the determinism analyzers apply only inside them.
var scopedPkgs = []string{
	"internal/sim",
	"internal/sched",
	"internal/core",
	"internal/coherence",
	"internal/depgraph",
	"internal/gasnet",
	"internal/netsim",
	"internal/gpusim",
	"internal/faults",
	"internal/memspace",
	"internal/task",
	"internal/metrics",
	"internal/trace",
	// The serving layer caches simulation results by content hash; a
	// wall-clock read there can leak nondeterminism into cached bytes
	// just as surely as one inside the simulator.
	"internal/serve",
}

// InScope reports whether pkgPath is one of the determinism-scoped
// runtime packages (or a package nested under one).
func InScope(pkgPath string) bool {
	p := "/" + pkgPath + "/"
	for _, s := range scopedPkgs {
		if strings.Contains(p, "/"+s+"/") {
			return true
		}
	}
	return false
}

// pathHasSuffixPkg reports whether pkgPath is exactly suffix or ends in
// "/"+suffix — e.g. the sim package whether imported as "internal/sim"
// or "github.com/bsc-repro/ompss/internal/sim".
func pathHasSuffixPkg(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// isSimPkg reports whether pkgPath is the simulation engine package.
func isSimPkg(pkgPath string) bool { return pathHasSuffixPkg(pkgPath, "internal/sim") }

// isTracePkg reports whether pkgPath is the trace package.
func isTracePkg(pkgPath string) bool { return pathHasSuffixPkg(pkgPath, "internal/trace") }

// Analyzers returns the full ompss-lint suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetWallclock,
		DetMapRange,
		SimBlocking,
		TracePair,
		OmpssDirective,
		DepVerify,
	}
}

// RunAnalyzers applies every analyzer to every package (per-package
// analyzers run per package; module analyzers run once over the whole
// set) and returns the findings sorted by position, then analyzer name.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	allDirs := make(map[string]map[int][]Directive)
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			name := pkg.Fset.Position(f.Pos()).Filename
			allDirs[name] = fileDirectives(pkg.Fset, f)
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Syntax,
				Pkg:        pkg.Types,
				TypesInfo:  pkg.TypesInfo,
				directives: allDirs,
				diags:      &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if len(pkgs) == 0 {
			continue
		}
		pass := &ModulePass{
			Analyzer:   a,
			Fset:       pkgs[0].Fset,
			Pkgs:       pkgs,
			directives: allDirs,
			diags:      &diags,
		}
		if err := a.RunModule(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return diags, nil
}
