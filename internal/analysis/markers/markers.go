// Package markers parses the propviewlint annotation vocabulary out of
// doc and line comments (see the internal/analysis package doc for what
// each marker means). Every analyzer shares this one parser so the
// vocabulary cannot drift between them.
package markers

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// FuncInfo is the marker set of one function declaration.
type FuncInfo struct {
	// ReadOnly: results alias callee-owned snapshot state (propview:read-only).
	ReadOnly bool
	// NoRetain: callback arguments must not retain yielded values
	// (propview:no-retain).
	NoRetain bool
	// Publish: the function is a commit/publish path allowed to write
	// generation fields (propview:publish).
	Publish bool
	// Deterministic: the function promises output independent of map
	// iteration order, wall-clock and randomness; maporder checks the
	// promise transitively (propview:deterministic).
	Deterministic bool
}

// any reports whether the info carries at least one marker.
func (info FuncInfo) any() bool {
	return info.ReadOnly || info.NoRetain || info.Publish || info.Deterministic
}

// Funcs collects the function markers of the package under analysis.
func Funcs(pass *analysis.Pass) map[*types.Func]FuncInfo {
	out := make(map[*types.Func]FuncInfo)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Doc != nil {
				info := parseFuncMarkers(fd.Doc)
				if !info.any() {
					continue
				}
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					out[obj] = info
				}
			}
		}
	}
	return out
}

func parseFuncMarkers(doc *ast.CommentGroup) FuncInfo {
	var info FuncInfo
	for _, c := range doc.List {
		switch strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) {
		case "propview:read-only":
			info.ReadOnly = true
		case "propview:no-retain":
			info.NoRetain = true
		case "propview:publish":
			info.Publish = true
		case "propview:deterministic":
			info.Deterministic = true
		}
	}
	return info
}

// Guard describes one guarded-by annotation on a struct field.
type Guard struct {
	// Name is the guard: a sibling field name, or "atomic".
	Name string
	// Struct is the syntax of the owning struct type, for sibling lookup.
	Struct *ast.StructType
	// Pos anchors bad-annotation diagnostics.
	Pos token.Pos
}

// FieldGuards collects `guarded-by:` annotations, keyed by field object.
func FieldGuards(pass *analysis.Pass) map[*types.Var]Guard {
	out := make(map[*types.Var]Guard)
	eachAnnotatedField(pass, "guarded-by:", func(field *ast.Field, st *ast.StructType, arg string, pos token.Pos) {
		name, _, _ := strings.Cut(arg, " ")
		if name == "" {
			return
		}
		for _, id := range field.Names {
			if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
				out[v] = Guard{Name: name, Struct: st, Pos: pos}
			}
		}
	})
	return out
}

// GenerationFields collects `propview:generation` annotations, keyed by
// field object, valued by the annotation position.
func GenerationFields(pass *analysis.Pass) map[*types.Var]token.Pos {
	out := make(map[*types.Var]token.Pos)
	eachAnnotatedField(pass, "propview:generation", func(field *ast.Field, _ *ast.StructType, _ string, pos token.Pos) {
		for _, id := range field.Names {
			if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
				out[v] = pos
			}
		}
	})
	return out
}

// eachAnnotatedField calls fn for every struct field whose doc or trailing
// comment contains a line starting with the given marker; arg is the rest
// of that line.
func eachAnnotatedField(pass *analysis.Pass, marker string, fn func(field *ast.Field, st *ast.StructType, arg string, pos token.Pos)) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, field := range st.Fields.List {
				for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
					if cg == nil {
						continue
					}
					for _, c := range cg.List {
						text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
						if rest, ok := strings.CutPrefix(text, marker); ok {
							// Anchor diagnostics at the field, not the comment
							// (a doc-comment marker sits on the line above).
							fn(field, st, strings.TrimSpace(rest), field.Pos())
						}
					}
				}
			}
			return true
		})
	}
}

// SiblingField resolves name to a field object of the given struct syntax,
// or nil.
func SiblingField(pass *analysis.Pass, st *ast.StructType, name string) *types.Var {
	for _, field := range st.Fields.List {
		for _, id := range field.Names {
			if id.Name == name {
				v, _ := pass.TypesInfo.Defs[id].(*types.Var)
				return v
			}
		}
	}
	return nil
}
