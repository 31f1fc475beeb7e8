// The `go vet -vettool` side of the driver: a reimplementation of
// x/tools' unitchecker protocol on the standard library. cmd/go invokes
// the tool once per package with a JSON config naming the package's files,
// the export-data file of every import, and the .vetx fact files of every
// dependency; the tool type-checks that one unit, runs the analyzers,
// writes its own facts to VetxOutput, and exits 2 when it found anything.
package driver

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"repro/internal/analysis"
)

// vetConfig is the JSON unit description cmd/go hands a -vettool.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the propviewlint entry point, dispatching between the vettool
// protocol (-V=full handshake, then one .cfg per package) and standalone
// whole-module source mode (import paths or ./... patterns). The
// -suppression-budget and -stats flags apply to standalone mode only —
// both need the whole-module view a per-package vet invocation lacks.
// -json works in both modes: one JSON object per finding line, suppressed
// findings included and flagged.
func Main(analyzers ...*analysis.Analyzer) {
	analyzers = Expand(analyzers)
	progname := filepath.Base(os.Args[0])
	var patterns []string
	var opt StandaloneOptions
	for _, arg := range os.Args[1:] {
		switch {
		case arg == "-V=full" || arg == "-V":
			// The go command's tool-ID handshake: with "devel" in the
			// version slot, cmd/go requires the last field to be
			// buildID=<content-id>, which it uses to invalidate vet
			// caches when the tool binary changes.
			fmt.Printf("%s version devel buildID=%s\n", progname, selfID())
			return
		case arg == "-flags":
			fmt.Println("[]") // no tool-specific flags to offer go vet
			return
		case arg == "-help" || arg == "--help" || arg == "-h":
			usage(progname, analyzers)
			return
		case strings.HasSuffix(arg, ".cfg"):
			os.Exit(unit(arg, analyzers, opt.JSON))
		case arg == "-json":
			opt.JSON = true
		case strings.HasPrefix(arg, "-suppression-budget="):
			opt.BudgetPath = strings.TrimPrefix(arg, "-suppression-budget=")
		case strings.HasPrefix(arg, "-stats="):
			opt.StatsPath = strings.TrimPrefix(arg, "-stats=")
		case strings.HasPrefix(arg, "-"):
			// Tolerate unknown flags passed through by go vet.
		default:
			patterns = append(patterns, arg)
		}
	}
	os.Exit(Standalone(patterns, analyzers, opt))
}

// selfID hashes the running executable so cmd/go's vet cache keys on the
// tool's content: rebuild propviewlint and stale results are discarded.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

func usage(progname string, analyzers []*analysis.Analyzer) {
	fmt.Printf("%s: machine-checks propview's concurrency, aliasing and determinism invariants.\n\n", progname)
	fmt.Printf("usage:\n  %s [packages]            standalone over the module's source\n", progname)
	fmt.Printf("  go vet -vettool=$(which %s) ./...   as a vet tool\n\nanalyzers:\n", progname)
	for _, a := range analyzers {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Printf("  %-18s %s\n", a.Name, doc)
	}
}

// unit runs one vettool invocation; the returned value is the process exit
// code (0 clean, 1 error, 2 findings). Only active (unsuppressed) findings
// drive the exit code; with jsonOut set, suppressed ones are printed
// alongside them, flagged.
func unit(cfgPath string, analyzers []*analysis.Analyzer, jsonOut bool) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return errExit(err)
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return errExit(fmt.Errorf("parsing %s: %v", cfgPath, err))
	}
	findings, err := runUnit(&cfg, analyzers)
	if err != nil {
		if err == errTypecheckTolerated {
			return 0
		}
		return errExit(err)
	}
	var active []Finding
	for _, f := range findings {
		if !f.Suppressed {
			active = append(active, f)
		}
	}
	if cfg.VetxOnly || len(active) == 0 {
		return 0
	}
	if jsonOut {
		printJSON(os.Stderr, findings)
	} else {
		for _, f := range active {
			fmt.Fprintf(os.Stderr, "%s\n", f)
		}
	}
	return 2
}

// errTypecheckTolerated marks a parse/type-check failure the config told
// us to swallow (SucceedOnTypecheckFailure).
var errTypecheckTolerated = fmt.Errorf("type-check failure tolerated by config")

// runUnit is the testable core of one vettool invocation: parse and
// type-check the unit from its config, import dependency facts from the
// .vetx files cmd/go listed, run the analyzers, write this unit's facts to
// VetxOutput, and return the findings.
func runUnit(cfg *vetConfig, analyzers []*analysis.Analyzer) ([]Finding, error) {
	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, errTypecheckTolerated
			}
			return nil, err
		}
		files = append(files, f)
	}

	compilerImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		return compilerImp.Import(importPath)
	})

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	var typeErr error
	conf := types.Config{
		Importer:  imp,
		GoVersion: langVersion(cfg.GoVersion),
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	pkg, _ := conf.Check(cfg.ImportPath, fset, files, info)
	if typeErr != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, errTypecheckTolerated
		}
		return nil, typeErr
	}

	facts := NewFacts()
	registry := factRegistry(analyzers)
	for _, vetx := range cfg.PackageVetx {
		if err := facts.readVetx(vetx, registry); err != nil {
			return nil, err
		}
	}

	// visible = nil: the store holds exactly the dependency facts cmd/go
	// handed us, which is the whole visible world of this unit.
	findings, err := RunPackage(analyzers, fset, files, pkg, info, facts, nil, nil)
	if err != nil {
		return nil, err
	}

	if cfg.VetxOutput != "" {
		if err := facts.writeVetx(cfg.VetxOutput); err != nil {
			return nil, err
		}
	}
	return findings, nil
}

func errExit(err error) int {
	fmt.Fprintln(os.Stderr, err)
	return 1
}

// langVersion trims a toolchain version like go1.24.0 to the language
// version form go/types accepts.
func langVersion(v string) string {
	if parts := strings.Split(v, "."); len(parts) > 2 {
		return strings.Join(parts[:2], ".")
	}
	return v
}

// importerFunc is shared with the source loader's shape; redeclared here so
// the driver does not depend on load for the vettool path.
type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// factRecord is the serialized form of one fact in a .vetx file.
type factRecord struct {
	Key  string // the store key (package, object path, fact type)
	Type string // concrete fact type, resolved against the registry
	Data []byte // gob-encoded fact value
}

func factRegistry(analyzers []*analysis.Analyzer) map[string]reflect.Type {
	reg := make(map[string]reflect.Type)
	for _, a := range analyzers {
		for _, f := range a.FactTypes {
			t := reflect.TypeOf(f)
			reg[t.String()] = t
		}
	}
	return reg
}

func (fs *Facts) writeVetx(path string) error {
	recs := make([]factRecord, 0, len(fs.m))
	for k, fact := range fs.m {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(fact); err != nil {
			return fmt.Errorf("encoding fact %T: %v", fact, err)
		}
		recs = append(recs, factRecord{Key: k, Type: reflect.TypeOf(fact).String(), Data: buf.Bytes()})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(recs); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o666)
}

func (fs *Facts) readVetx(path string, registry map[string]reflect.Type) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var recs []factRecord
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&recs); err != nil {
		return fmt.Errorf("decoding %s: %v", path, err)
	}
	for _, rec := range recs {
		t, ok := registry[rec.Type]
		if !ok {
			continue // fact from an analyzer not in this binary
		}
		fact := reflect.New(t.Elem()).Interface().(analysis.Fact)
		if err := gob.NewDecoder(bytes.NewReader(rec.Data)).Decode(fact); err != nil {
			return fmt.Errorf("decoding fact %s: %v", rec.Type, err)
		}
		fs.m[rec.Key] = fact
	}
	return nil
}
