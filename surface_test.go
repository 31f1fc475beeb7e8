package propview_test

import (
	"flag"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestFacadeSurfaceGolden pins the propview facade's exported identifiers
// and their types, as go/types reads them from source with the standard
// library's source importer: for each type, the exported fields of its
// struct and the exported methods of its method set. A change to the
// public API shows up as a diff of testdata/surface.golden.
func TestFacadeSurfaceGolden(t *testing.T) {
	pkg, err := importer.ForCompiler(token.NewFileSet(), "source", nil).Import("repro")
	if err != nil {
		t.Fatal(err)
	}
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Name()
	}
	var b strings.Builder
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		tn, ok := obj.(*types.TypeName)
		if !ok {
			b.WriteString(types.ObjectString(obj, qual) + "\n")
			continue
		}
		typ := tn.Type()
		if tn.IsAlias() {
			b.WriteString("type " + name + " = " + types.TypeString(typ, qual) + "\n")
		} else {
			b.WriteString("type " + name + " " + types.TypeString(typ.Underlying(), qual) + "\n")
		}
		if st, ok := typ.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					b.WriteString("\tfield " + f.Name() + " " + types.TypeString(f.Type(), qual) + "\n")
				}
			}
		}
		if !types.IsInterface(typ) {
			typ = types.NewPointer(typ)
		}
		ms := types.NewMethodSet(typ)
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj(); m.Exported() {
				b.WriteString("\tmethod " + m.Name() + strings.TrimPrefix(types.TypeString(m.Type(), qual), "func") + "\n")
			}
		}
	}
	checkGolden(t, "testdata/surface.golden", b.String())
}

// checkGolden compares got with the golden file, or rewrites the file
// under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the output (rerun with -update to rewrite it)", path)
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Errorf("first difference at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
				break
			}
		}
	}
}
