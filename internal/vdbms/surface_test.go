package vdbms

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// decodeSurface lists the exported top-level identifiers of a package
// directory (non-test files) that name a decode entry point or a decoded
// source: functions and types as Name, methods as Receiver.Name.
func decodeSurface(t *testing.T, dir string) []string {
	t.Helper()
	match := regexp.MustCompile(`^Decode|DecodedSource$`)
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if !d.Name.IsExported() || !match.MatchString(name) {
						continue
					}
					if d.Recv != nil {
						recv := d.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						name = recv.(*ast.Ident).Name + "." + name
					}
					out = append(out, name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() && match.MatchString(ts.Name.Name) {
							out = append(out, ts.Name.Name)
						}
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestDecodeSurface pins the decode API to its short list. There is one
// request type and one way to decode at each layer: codec.DecodeRequest
// (with four fixed-signature spellings the frozen bench/ module calls)
// and vdbms.Decode behind one DecodedSource. A new sibling entry point —
// DecodeFoo, FooDecodedSource — fails here; generalise the request
// instead, or argue the list in review.
func TestDecodeSurface(t *testing.T) {
	for dir, want := range map[string][]string{
		"../codec": {
			"Decoder", "Decoder.Decode", // the per-access-unit primitive
			"Encoded.Decode", "Encoded.DecodeParallel", "Encoded.DecodeRange",
			"Encoded.DecodeRequest", "Encoded.DecodeTiles",
		},
		".": {"Decode", "DecodedSource"},
	} {
		got := decodeSurface(t, dir)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("%s exports decode surface\n  %v\nwant\n  %v", dir, got, want)
		}
	}
}
