// Package driver runs propviewlint's analyzers. Two modes share the fact
// store and the suppression filter: Run type-checks from source and walks
// the dependency graph bottom-up, one package at a time (the standalone
// binary and the analysistest harness), while unitchecker.go speaks the
// `go vet -vettool` protocol, one package per process with facts carried
// in .vetx files.
package driver

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
)

// Finding is one diagnostic. Suppressed findings (matched by a
// //lint:ignore directive) are carried rather than dropped, so the -json
// output can show them; the text printers and exit codes consider only
// active ones.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
	// Suppressed: a well-formed //lint:ignore directive on the finding's
	// line or the line above names this analyzer.
	Suppressed bool
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s (%s)", f.Pos, f.Message, f.Analyzer)
}

// DirectiveAnalyzer is the synthetic analyzer name under which problems
// with //lint:ignore directives themselves are reported: malformed
// directives, unknown analyzer names, and directives that suppress
// nothing. Directive findings are not themselves suppressible.
const DirectiveAnalyzer = "lintdirective"

// Facts is the cross-package fact store. Facts are keyed by the owning
// package path, a stable object path within it (empty for package-level
// facts), and the fact's concrete type, so the same key works whether the
// fact was produced live (source mode) or decoded from a dependency's
// .vetx file (vettool mode).
type Facts struct {
	m map[string]analysis.Fact
}

// NewFacts returns an empty fact store.
func NewFacts() *Facts { return &Facts{m: make(map[string]analysis.Fact)} }

// objPath returns a stable intra-package path for the objects facts attach
// to: package-level declarations ("Name") and methods ("Type.Name").
func objPath(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	switch o := obj.(type) {
	case *types.Func:
		if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return "", false
			}
			return named.Obj().Name() + "." + o.Name(), true
		}
		return o.Name(), true
	case *types.Var:
		if o.IsField() {
			return "", false // field facts stay package-local
		}
		return o.Name(), true
	default:
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Name(), true
		}
		return "", false
	}
}

func factKey(obj types.Object, fact analysis.Fact) (string, bool) {
	path, ok := objPath(obj)
	if !ok {
		return "", false
	}
	return obj.Pkg().Path() + "\x00" + path + "\x00" + reflect.TypeOf(fact).String(), true
}

// pkgFactKey keys a package-level fact: the object-path slot is empty,
// which no object fact can produce.
func pkgFactKey(pkgPath string, fact analysis.Fact) string {
	return pkgPath + "\x00\x00" + reflect.TypeOf(fact).String()
}

// copyInto copies src's pointee into dst (both pointers of one type).
func copyInto(dst, src analysis.Fact) {
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
}

// Get copies the stored fact for obj of fact's concrete type into fact.
func (fs *Facts) Get(obj types.Object, fact analysis.Fact) bool {
	k, ok := factKey(obj, fact)
	if !ok {
		return false
	}
	stored, ok := fs.m[k]
	if !ok {
		return false
	}
	copyInto(fact, stored)
	return true
}

// Set records fact for obj; facts on local or field objects are dropped
// (they never cross a package boundary).
func (fs *Facts) Set(obj types.Object, fact analysis.Fact) {
	if k, ok := factKey(obj, fact); ok {
		fs.m[k] = fact
	}
}

// GetPkg copies the stored package fact for pkgPath into fact.
func (fs *Facts) GetPkg(pkgPath string, fact analysis.Fact) bool {
	stored, ok := fs.m[pkgFactKey(pkgPath, fact)]
	if !ok {
		return false
	}
	copyInto(fact, stored)
	return true
}

// SetPkg records a package-level fact for pkgPath.
func (fs *Facts) SetPkg(pkgPath string, fact analysis.Fact) {
	fs.m[pkgFactKey(pkgPath, fact)] = fact
}

// AllPkg returns the stored package facts of fact's concrete type. When
// visible is non-nil only packages in it are consulted (the standalone
// driver passes each package's transitive import closure, mirroring the
// import-edge-only fact flow of the vettool protocol); a nil visible set
// means everything in the store (the vettool driver, whose store holds
// exactly the dependencies' facts). The package named by exclude — the one
// under analysis — is always omitted.
func (fs *Facts) AllPkg(fact analysis.Fact, visible map[string]bool, exclude string) []analysis.PackageFact {
	suffix := "\x00\x00" + reflect.TypeOf(fact).String()
	var out []analysis.PackageFact
	for k, stored := range fs.m {
		path, ok := strings.CutSuffix(k, suffix)
		if !ok || path == exclude {
			continue
		}
		if visible != nil && !visible[path] {
			continue
		}
		out = append(out, analysis.PackageFact{Path: path, Fact: stored})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// directive is one parsed //lint:ignore comment. A well-formed directive
// reads `//lint:ignore <analyzer>[,<analyzer>] <justification>`; malformed
// ones are no longer silently dropped — they surface as DirectiveAnalyzer
// findings, as do directives whose names never match a diagnostic (a
// directive parked on a blank line not adjacent to the offending
// statement suppresses nothing and is reported as unused).
type directive struct {
	pos       token.Position
	names     []string
	malformed string          // why the directive is invalid; empty when well-formed
	used      map[string]bool // analyzer names that suppressed at least one diagnostic
}

// suppressions indexes the //lint:ignore directives of one package.
type suppressions struct {
	byLine map[string][]*directive // "file:line" -> directives anchored there
	list   []*directive            // source order, for directive findings
}

func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	sup := &suppressions{byLine: make(map[string][]*directive)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//lint:ignore")
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue // not the directive (e.g. //lint:ignored)
				}
				d := &directive{pos: fset.Position(c.Pos()), used: make(map[string]bool)}
				fields := strings.Fields(rest)
				switch {
				case len(fields) == 0:
					d.malformed = "missing analyzer name and justification"
				case len(fields) == 1:
					d.malformed = "missing justification"
				}
				if len(fields) > 0 {
					for _, name := range strings.Split(fields[0], ",") {
						if name != "" {
							d.names = append(d.names, name)
						}
					}
				}
				sup.list = append(sup.list, d)
				key := fmt.Sprintf("%s:%d", d.pos.Filename, d.pos.Line)
				sup.byLine[key] = append(sup.byLine[key], d)
			}
		}
	}
	return sup
}

// match reports whether a diagnostic at pos from the named analyzer is
// suppressed: a well-formed directive on the same line or the line above
// names the analyzer. Matching marks the directive used.
func (s *suppressions) match(pos token.Position, analyzer string) bool {
	hit := false
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, d := range s.byLine[fmt.Sprintf("%s:%d", pos.Filename, line)] {
			if d.malformed != "" {
				continue
			}
			for _, n := range d.names {
				if n == analyzer {
					d.used[analyzer] = true
					hit = true
				}
			}
		}
	}
	return hit
}

// findings reports the directives that are themselves wrong: malformed
// ones, names not in the known analyzer set, and well-formed directives
// that suppressed nothing.
func (s *suppressions) findings(known map[string]bool) []Finding {
	var out []Finding
	for _, d := range s.list {
		if d.malformed != "" {
			out = append(out, Finding{Pos: d.pos, Analyzer: DirectiveAnalyzer,
				Message: fmt.Sprintf("malformed //lint:ignore directive: %s (want //lint:ignore <analyzer>[,<analyzer>] <justification>)", d.malformed)})
			continue
		}
		for _, n := range d.names {
			switch {
			case !known[n]:
				out = append(out, Finding{Pos: d.pos, Analyzer: DirectiveAnalyzer,
					Message: fmt.Sprintf("//lint:ignore names unknown analyzer %q", n)})
			case !d.used[n]:
				out = append(out, Finding{Pos: d.pos, Analyzer: DirectiveAnalyzer,
					Message: fmt.Sprintf("unused //lint:ignore directive for %s: no diagnostic on this line or the next; directives must sit on or immediately above the offending statement", n)})
			}
		}
	}
	return out
}

// Expand returns analyzers with every transitive requirement inserted
// before its dependents, deduplicated, preserving the request order
// otherwise. An analyzer requirement cycle is a programming error and
// panics.
func Expand(analyzers []*analysis.Analyzer) []*analysis.Analyzer {
	var out []*analysis.Analyzer
	state := make(map[*analysis.Analyzer]int) // 1 = visiting, 2 = done
	var visit func(a *analysis.Analyzer)
	visit = func(a *analysis.Analyzer) {
		switch state[a] {
		case 1:
			panic(fmt.Sprintf("driver: analyzer requirement cycle through %s", a.Name))
		case 2:
			return
		}
		state[a] = 1
		for _, req := range a.Requires {
			visit(req)
		}
		state[a] = 2
		out = append(out, a)
	}
	for _, a := range analyzers {
		visit(a)
	}
	return out
}

// RunPackage runs every analyzer (with requirements expanded, in
// dependency order) over one type-checked package, exchanging facts
// through fs, and returns every finding — suppressed ones flagged rather
// than dropped — plus DirectiveAnalyzer findings for //lint:ignore
// directives that are malformed, name unknown analyzers, or suppress
// nothing. visible restricts
// AllPackageFacts to the given package paths; nil means the whole store
// (vettool mode, where the store holds exactly the dependency facts).
// durations, when non-nil, accumulates per-analyzer wall-clock.
func RunPackage(analyzers []*analysis.Analyzer, fset *token.FileSet, files []*ast.File,
	pkg *types.Package, info *types.Info, fs *Facts, visible map[string]bool,
	durations *Durations) ([]Finding, error) {
	sup := collectSuppressions(fset, files)
	var findings []Finding
	results := make(map[*analysis.Analyzer]any)
	expanded := Expand(analyzers)
	known := make(map[string]bool, len(expanded))
	for _, a := range expanded {
		known[a.Name] = true
	}
	for _, a := range expanded {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      fset,
			Files:     files,
			Pkg:       pkg,
			TypesInfo: info,
			ResultOf:  results,
			ImportObjectFact: func(obj types.Object, fact analysis.Fact) bool {
				return fs.Get(obj, fact)
			},
			ExportObjectFact: func(obj types.Object, fact analysis.Fact) {
				fs.Set(obj, fact)
			},
			ImportPackageFact: func(p *types.Package, fact analysis.Fact) bool {
				if p == nil {
					return false
				}
				return fs.GetPkg(p.Path(), fact)
			},
			ExportPackageFact: func(fact analysis.Fact) {
				fs.SetPkg(pkg.Path(), fact)
			},
			AllPackageFacts: func(fact analysis.Fact) []analysis.PackageFact {
				return fs.AllPkg(fact, visible, pkg.Path())
			},
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			pos := fset.Position(d.Pos)
			findings = append(findings, Finding{
				Pos: pos, Analyzer: name, Message: d.Message,
				Suppressed: sup.match(pos, name),
			})
		}
		start := time.Now()
		res, err := a.Run(pass)
		if durations != nil {
			durations.add(name, time.Since(start))
		}
		if err != nil {
			return nil, fmt.Errorf("%s: analyzing %s: %w", a.Name, pkg.Path(), err)
		}
		results[a] = res
	}
	findings = append(findings, sup.findings(known)...)
	return findings, nil
}

// Durations accumulates per-analyzer wall-clock across packages.
type Durations struct {
	d map[string]time.Duration
}

// NewDurations returns an empty accumulator.
func NewDurations() *Durations { return &Durations{d: make(map[string]time.Duration)} }

func (d *Durations) add(name string, dt time.Duration) { d.d[name] += dt }

// Get returns the accumulated wall-clock for one analyzer.
func (d *Durations) Get(name string) time.Duration { return d.d[name] }

// Run analyzes pkgs and their transitive source dependencies one package
// at a time in dependency order (every import before its importer), and
// returns every active (unsuppressed) finding sorted by position. Fact
// visibility per package is its transitive import closure, exactly what
// the vettool protocol provides. Callers that want suppressed findings
// too (the -json printers) use RunStats.
func Run(analyzers []*analysis.Analyzer, fset *token.FileSet, pkgs []*load.Package) ([]Finding, error) {
	findings, _, err := RunStats(analyzers, fset, pkgs, nil)
	if err != nil {
		return nil, err
	}
	var active []Finding
	for _, f := range findings {
		if !f.Suppressed {
			active = append(active, f)
		}
	}
	return active, nil
}

// RunStats is Run with per-analyzer wall-clock accumulation (durations may
// be nil) and a count of analyzed packages. Unlike Run it returns
// suppressed findings too, flagged via Finding.Suppressed.
func RunStats(analyzers []*analysis.Analyzer, fset *token.FileSet, pkgs []*load.Package,
	durations *Durations) ([]Finding, int, error) {
	fs := NewFacts()
	visible := make(map[string]map[string]bool) // package -> transitive import closure
	var findings []Finding
	var visit func(p *load.Package) error
	visit = func(p *load.Package) error {
		if _, ok := visible[p.Path]; ok {
			return nil
		}
		vis := make(map[string]bool)
		visible[p.Path] = vis // before recursing: load rejects cycles, this is belt
		for _, dep := range p.Imports {
			if err := visit(dep); err != nil {
				return err
			}
			vis[dep.Path] = true
			for path := range visible[dep.Path] {
				vis[path] = true
			}
		}
		fnd, err := RunPackage(analyzers, fset, p.Files, p.Types, p.Info, fs, vis, durations)
		findings = append(findings, fnd...)
		return err
	}
	for _, p := range pkgs {
		if err := visit(p); err != nil {
			return nil, 0, err
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return findings, len(visible), nil
}

// CountSuppressions tallies //lint:ignore comments per analyzer name
// across pkgs and their transitive source dependencies (each file counted
// once). The suppression-budget ratchet compares these against a
// checked-in ceiling.
func CountSuppressions(fset *token.FileSet, pkgs []*load.Package) map[string]int {
	counts := make(map[string]int)
	seenPkg := make(map[string]bool)
	seenFile := make(map[string]bool)
	var visit func(p *load.Package)
	visit = func(p *load.Package) {
		if seenPkg[p.Path] {
			return
		}
		seenPkg[p.Path] = true
		for _, dep := range p.Imports {
			visit(dep)
		}
		for _, f := range p.Files {
			name := fset.Position(f.Pos()).Filename
			if seenFile[name] {
				continue
			}
			seenFile[name] = true
			for _, d := range collectSuppressions(fset, []*ast.File{f}).list {
				if d.malformed != "" {
					continue // malformed directives are findings, not budget entries
				}
				for _, n := range d.names {
					counts[n]++
				}
			}
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	return counts
}
