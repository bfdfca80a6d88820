package mosaic_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strings"
	"testing"
)

// facadeSurface is every exported name of package mosaic: top-level
// declarations, methods as Type.Method and struct fields as
// Type.Field. The facade serves the examples, cmd/, internal/benchsuite
// and bench/; a name joins this list only when one of them needs it.
var facadeSurface = []string{
	"Aggregator",
	"Analysis",
	"Analysis.Aggregate",
	"Analysis.Apps",
	"Analysis.Funnel",
	"Analysis.WriteReport",
	"AnalyzeCorpusContext",
	"AnalyzeJobsContext",
	"AppResult",
	"AppResult.Result",
	"AppResult.Runs",
	"Archetype",
	"ArchetypeByName",
	"BurstSpec",
	"Categorize",
	"CategorizeAll",
	"Config",
	"Counters",
	"DefaultConfig",
	"Explain",
	"Explanation",
	"FileRecord",
	"FunnelStats",
	"Job",
	"ListCorpus",
	"ModPOSIX",
	"NewTraceBuilder",
	"Options",
	"Options.Config",
	"Options.Workers",
	"PeriodicSpec",
	"ReadTrace",
	"Result",
	"TraceBuilder",
	"Validate",
	"WriteTimeline",
	"WriteTrace",
}

// TestFacadeSurface pins the exported names of the root package, read
// from its non-test source files, against facadeSurface.
func TestFacadeSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["mosaic"]
	if !ok || len(pkgs) != 1 {
		t.Fatalf("want one non-test package mosaic in the root, got %d", len(pkgs))
	}
	var got []string
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			got = append(got, exportedNames(decl)...)
		}
	}
	slices.Sort(got)
	want := slices.Clone(facadeSurface)
	slices.Sort(want)
	for _, n := range got {
		if _, found := slices.BinarySearch(want, n); !found {
			t.Errorf("exported %s is not in facadeSurface", n)
		}
	}
	for _, n := range want {
		if _, found := slices.BinarySearch(got, n); !found {
			t.Errorf("facadeSurface lists %s, which the package does not export", n)
		}
	}
}

func exportedNames(decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			break
		}
		if d.Recv == nil {
			out = append(out, d.Name.Name)
			break
		}
		recv := d.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok && id.IsExported() {
			out = append(out, id.Name+"."+d.Name.Name)
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				out = append(out, s.Name.Name)
				st, ok := s.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.IsExported() {
							out = append(out, s.Name.Name+"."+name.Name)
						}
					}
				}
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if name.IsExported() {
						out = append(out, name.Name)
					}
				}
			}
		}
	}
	return out
}
