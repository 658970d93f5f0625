package guard

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"slices"
	"strings"
	"testing"
)

// keep names the code under internal/ that no product path reaches and
// that stays anyway, with the reason: a function by its directory and
// name, a package by its directory. Each is a root of the walk.
var keep = map[string]string{
	"internal/queries.PMap":          "a closure-form reference the execute kernels' tests compare against (DESIGN.md §5.5)",
	"internal/queries.PMapFrame":     "a closure-form reference the execute kernels' tests compare against (DESIGN.md §5.5)",
	"internal/queries.JoinP":         "a closure-form reference the execute kernels' tests compare against (DESIGN.md §5.5)",
	"internal/queries.JoinPFrame":    "a closure-form reference the execute kernels' tests compare against (DESIGN.md §5.5)",
	"internal/queries.OmegaCoalesce": "a closure-form reference the execute kernels' tests compare against (DESIGN.md §5.5)",
	"internal/queries.Window":        "a closure-form reference the execute kernels' tests compare against (DESIGN.md §5.5)",
	"internal/queries.AggregateMean": "a closure-form reference the execute kernels' tests compare against (DESIGN.md §5.5)",
	"internal/queries.sumScratch":    "the per-frame window sum the fused kernels' tests compare against (DESIGN.md §5.5)",
	"internal/vdbms/vdbmstest":       "the engines' shared conformance suite, a package that _test.go files import",
	"internal/difftest":              "the differential test harness the shard and vcd tests run, a package that _test.go files import",
}

// stdMethods are method names the standard library calls through its own
// interfaces (fmt, errors, encoding/json): a method of one of these names
// is reached with no selector in the tree.
var stdMethods = []string{"Error", "String", "MarshalJSON", "UnmarshalJSON"}

// A finding is a declaration no product path reaches, or (with no name)
// a keep entry that declares nothing.
type finding struct{ at, name string }

func (f finding) String() string {
	if f.name == "" {
		return fmt.Sprintf("%s: a keep entry that declares nothing; drop it [guard reachable; DESIGN.md §3]", f.at)
	}
	return fmt.Sprintf("%s: %s is reached from no product path; delete it, or move it into the _test.go that uses it [guard reachable; DESIGN.md §3]", f.at, f.name)
}

// TestReachable wants every function, method and type declared in the
// non-test Go under internal/ reached from a product path: from the
// non-test code of cmd/, bench/, examples/ and the root package, through
// other reached code, to a fixpoint. Loading a package reaches its
// package-level variables and constants and its init functions; a method
// is reached when reached code selects its name, and a type when reached
// code names it outside its own methods' receivers. Code that only a
// _test.go file uses belongs in that file, or is deleted.
func TestReachable(t *testing.T) {
	for _, f := range unreached(load(t), keep) {
		t.Error(f)
	}
}

// unreached walks the files from their roots and returns what it did not
// reach. An identifier reaches the function or type of that name in its
// own package; a selector on an imported package reaches that package's
// function or type, and any other selector reaches every method of its
// name.
// Both over-approximate (a local variable may shadow a function, two
// types may share a method name), so a finding is never a false alarm.
func unreached(files []*srcFile, keep map[string]string) (out []finding) {
	type decl struct {
		f    *srcFile
		d    ast.Node // *ast.FuncDecl or *ast.TypeSpec
		live bool
	}
	funcs := map[string][]*decl{}   // "dir.name" → its functions and types, one per build
	methods := map[string][]*decl{} // method name → its declarations
	var code, roots []*srcFile
	for _, f := range files {
		if strings.HasSuffix(f.path, "_test.go") || slices.Contains(strings.Split(f.path, "/"), "testdata") {
			continue
		}
		dir := path.Dir(f.path)
		if !strings.HasPrefix(f.path, "internal/") || keep[dir] != "" {
			roots = append(roots, f)
			continue
		}
		code = append(code, f)
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					funcs[dir+"."+d.Name.Name] = append(funcs[dir+"."+d.Name.Name], &decl{f: f, d: d})
				} else {
					methods[d.Name.Name] = append(methods[d.Name.Name], &decl{f: f, d: d})
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					if ts, ok := sp.(*ast.TypeSpec); ok {
						funcs[dir+"."+ts.Name.Name] = append(funcs[dir+"."+ts.Name.Name], &decl{f: f, d: ts})
					}
				}
			}
		}
	}

	type item struct {
		f *srcFile
		n ast.Node
	}
	var work []item
	reach := func(ds []*decl) {
		for _, d := range ds {
			if d.live {
				continue
			}
			d.live = true
			if fd, ok := d.d.(*ast.FuncDecl); ok && fd.Recv != nil {
				// A method's receiver does not name its type.
				work = append(work, item{d.f, fd.Type})
				if fd.Body != nil {
					work = append(work, item{d.f, fd.Body})
				}
			} else {
				work = append(work, item{d.f, d.d})
			}
		}
	}
	selected := map[string]bool{}
	selectName := func(name string) {
		if !selected[name] {
			selected[name] = true
			reach(methods[name])
		}
	}
	for _, name := range stdMethods {
		selectName(name)
	}
	for k := range keep {
		if funcs[k] != nil {
			reach(funcs[k])
		} else if !slices.ContainsFunc(roots, func(f *srcFile) bool { return path.Dir(f.path) == k }) {
			out = append(out, finding{at: k})
		}
	}
	for _, f := range roots {
		work = append(work, item{f, f.ast})
	}
	for _, f := range code {
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "init" {
				reach(funcs[path.Dir(f.path)+".init"])
			} else if gd, ok := d.(*ast.GenDecl); ok && gd.Tok != token.TYPE {
				work = append(work, item{f, d})
			}
		}
	}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		dir := path.Dir(it.f.path)
		ast.Inspect(it.n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && it.f.imports[x.Name] != "" {
					reach(funcs[strings.TrimPrefix(it.f.imports[x.Name], "repro/")+"."+n.Sel.Name])
					return false
				}
				selectName(n.Sel.Name)
				work = append(work, item{it.f, n.X})
				return false
			case *ast.Ident:
				reach(funcs[dir+"."+n.Name])
			}
			return true
		})
	}

	for _, f := range code {
		isLive := func(key string, n ast.Node) bool {
			return slices.ContainsFunc(funcs[key], func(d *decl) bool { return d.d == n && d.live })
		}
		for _, d := range f.ast.Decls {
			var decls []ast.Node
			switch d := d.(type) {
			case *ast.FuncDecl:
				decls = append(decls, d)
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					if ts, ok := sp.(*ast.TypeSpec); ok {
						decls = append(decls, ts)
					}
				}
			}
			for _, n := range decls {
				var name string
				var live bool
				switch n := n.(type) {
				case *ast.TypeSpec:
					name = n.Name.Name
					live = isLive(path.Dir(f.path)+"."+name, n)
				case *ast.FuncDecl:
					name, live = n.Name.Name, selected[n.Name.Name]
					if n.Recv == nil {
						live = isLive(path.Dir(f.path)+"."+name, n)
					} else {
						name = "(" + types.ExprString(n.Recv.List[0].Type) + ")." + name
					}
				}
				if !live {
					out = append(out, finding{fmt.Sprintf("%s:%d", f.path, fset.Position(n.Pos()).Line), name})
				}
			}
		}
	}
	return out
}

// TestReachableFires plants files into the tree and wants the walk to
// name exactly the planted declarations that no product path reaches.
// The walk skips each planted _test.go caller, as it skips every test.
func TestReachableFires(t *testing.T) {
	tree := load(t)
	const testCaller = "package %s\n\nimport \"testing\"\n\nfunc TestPlanted(t *testing.T) { %s() }\n"
	cases := []struct {
		name  string
		files map[string]string // path → source
		keep  map[string]string
		want  []string
	}{
		{"a test is the only caller", map[string]string{
			"internal/geom/planted.go":      "package geom\n\nfunc Planted() {}\n",
			"internal/geom/planted_test.go": fmt.Sprintf(testCaller, "geom", "Planted"),
		}, keep, []string{"Planted"}},
		{"reached only from such a function", map[string]string{
			"internal/geom/planted.go":      "package geom\n\nfunc Planted() { planted() }\n\nfunc planted() { Rect{}.planted() }\n\nfunc (Rect) planted() {}\n",
			"internal/geom/planted_test.go": fmt.Sprintf(testCaller, "geom", "Planted"),
		}, keep, []string{"Planted", "planted", "(Rect).planted"}},
		{"a test is the only user of a type", map[string]string{
			"internal/geom/planted.go":      "package geom\n\ntype Planted struct{}\n",
			"internal/geom/planted_test.go": "package geom\n\nvar _ Planted\n",
		}, keep, []string{"Planted"}},
		{"the TIDX reader is back", map[string]string{
			"internal/container/tileindex.go":      "package container\n\nfunc ExtractTileSpan() {}\n",
			"internal/container/tileindex_test.go": fmt.Sprintf(testCaller, "container", "ExtractTileSpan"),
		}, keep, []string{"ExtractTileSpan"}},
		{"bench/ is a product path", map[string]string{
			"internal/geom/planted.go": "package geom\n\nfunc Planted() { planted() }\n\nfunc planted() {}\n",
			"bench/planted.go":         "package main\n\nimport g \"repro/internal/geom\"\n\nvar _ = g.Planted\n",
		}, keep, nil},
		{"a kept name", map[string]string{
			"internal/geom/planted.go": "package geom\n\nfunc Planted() { planted() }\n\nfunc planted() {}\n",
		}, with(keep, "internal/geom.Planted"), nil},
		{"a kept name that is gone", nil, with(keep, "internal/geom.Planted"), []string{""}},
	}
	for _, c := range cases {
		files := slices.Clone(tree)
		for p, src := range c.files {
			f, err := parse(p, []byte(src))
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			files = append(files, f)
		}
		var got []string
		for _, f := range unreached(files, c.keep) {
			got = append(got, f.name)
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: the walk names %q, want %q", c.name, got, c.want)
		}
	}

	// Each keep entry is needed: with none, the walk names each kept
	// function and code in each kept package, and nothing else.
	hit := map[string]bool{}
	for _, f := range unreached(tree, nil) {
		file, _, _ := strings.Cut(f.at, ":")
		k := path.Dir(file) + "." + f.name
		if keep[k] == "" {
			k = path.Dir(file)
		}
		if keep[k] == "" {
			t.Errorf("with no keep entries the walk names %v, which no entry keeps", f)
		}
		hit[k] = true
	}
	for k := range keep {
		if !hit[k] {
			t.Errorf("keep entry %s: the walk reaches it without the entry; drop it", k)
		}
	}
}

// with returns a copy of m that also keeps k.
func with(m map[string]string, k string) map[string]string {
	out := map[string]string{k: "planted"}
	for k, v := range m {
		out[k] = v
	}
	return out
}
