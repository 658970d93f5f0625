// Package guard keeps deleted code deleted. Each row of the table below
// names something a simplification removed, or pins how often a single
// route may appear, in the non-test Go under cmd/ and internal/; the
// last row holds every Go file of the tree to gofmt. The rows read the
// parsed syntax, so a name in a comment is not a match, and a call is
// matched by its import path, whatever the file calls the package. The
// one rule that needs the whole tree at once, that a product path
// reaches every function under internal/, is TestReachable.
package guard

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/format"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var code = []string{"cmd", "internal"}

var rows = []row{
	{name: "no-subgop", in: code, section: "§5.6", plant: "package codec\n\nvar auSyms int\n",
		match:  named[*ast.Ident](`decodeSubGOP|parseAU|auSyms|mbsPool|ExtractSpanParallel|StageEntropy|StageTransform`),
		reason: "the sub-GOP decode path is back; DecodeRequest's (tile × GOP chain) loop is the one route from access units to frames"},
	{name: "one-header-reader", in: []string{"internal/codec"}, want: 1, section: "§5.6", plant: "package codec\n\nfunc f() { readFrameHeader(nil) }\n",
		match:  named[*ast.CallExpr](`readFrameHeader$`),
		reason: "Decoder.Decode is the one caller of readFrameHeader; a second caller is a second bitstream parser"},
	{name: "decode-residual", in: []string{"internal/codec/decoder.go", "internal/codec/tile.go"}, section: "§5.9 item 2",
		match: named[*ast.CallExpr](`(decodeBlock|dequantizeBlock)$`), plant: "package codec\n\nfunc f() { decodeBlock(nil) }\n",
		reason: "the decoder fills a level array again; decodeResidual is the one route from bitstream to residual"},
	{name: "encode-mask", in: []string{"internal/codec"}, section: "§5.9 item 4", plant: "package codec\n\nfunc f() { quantizeBlock(nil) }\n",
		match:  named[*ast.CallExpr](`(quantizeBlock|dequantizeBlock)$`),
		reason: "the encoder fills a whole level array again; quantizeResidual's mask is the one route from residual to bitstream"},
	{name: "encode-no-level-scan", in: []string{"internal/codec/encoder.go", "internal/codec/tile.go", "internal/codec/transform.go"},
		match: named[ast.Node](`^range .*levels|levels\[i\]$`), section: "§5.9 item 4", plant: "package codec\n\nfunc f(levels *[64]int32) {\n\tfor i := range levels {\n\t\tlevels[i] = 0\n\t}\n}\n",
		reason: "the encoder scans a whole level array again; read levels at the mask's set bits"},
	{name: "integer-codec", in: []string{"internal/codec"}, section: "§5.9 item 2", plant: "package codec\n\nimport \"math\"\n\nvar _ = math.Pi\n",
		match:  named[*ast.BasicLit](`^math$`),
		reason: "the codec imports math again; its transform, quantizer and rate control are integer or exact, so its bytes are the same on every machine"},
	{name: "sad-extended-ref", in: []string{"internal/codec"}, section: "§5.9 item 4", plant: "package codec\n\nfunc f(p plane) { p.rowAt(0) }\n",
		match:  named[*ast.CallExpr](`(rowAt|sadBlock)$`),
		reason: "a clamped SAD loop is back in the codec; motion search reads the extended reference (extPlane) through sad16"},
	{name: "no-config-mirror", in: code, section: "§5.14", plant: "package vcd\n\ntype OptionsWire struct{}\n",
		match:  named[*ast.Ident](`OptionsWire|QueryWorkers|QuerySequential`),
		reason: "a deleted mirror of the run configuration is back; vcd.Options is the wire form, the experiment config and the flag source"},
	{name: "cli-owns-helpers", in: code, section: "§5.14", plant: "package main\n\nfunc closeDebug(func() error) int { return 0 }\n",
		match:  named[*ast.FuncDecl](`^(splitAddrs|closeDebug)$`),
		reason: "internal/cli owns address parsing (Shard.Addrs) and the debug-server exit path (Obs.Exit); use them"},
	{name: "metric-names-in-table", in: code, except: []string{"internal/metrics/scalars.go", "internal/metrics/prom.go"}, section: "§5.7 item 3",
		match: named[*ast.BasicLit](`^vr_[a-z_]+$`), plant: "package main\n\nvar _ = \"vr_rows_total\"\n",
		reason: "a Prometheus name outside the scalar table; add a row to internal/metrics/scalars.go"},
	{name: "prom-names", in: []string{"internal/metrics/prom.go"}, section: "§5.7 item 3", plant: "package metrics\n\nvar _ = \"vr_rows_total\"\n",
		match:  unless(named[*ast.BasicLit](`^vr_[a-z_]+$`), `^vr_(metrics_enabled|stage_seconds(_bucket|_sum|_count)?)$`),
		reason: "prom.go names only the enabled gauge and the stage histogram family; every other name is a row of the scalar table"},
	{name: "no-metrics-mirror", in: code, section: "§5.7 item 3", plant: "package metrics\n\nvar GlobalCacheCounters int\n",
		match:  named[*ast.Ident](`GlobalCacheCounters|GlobalShardCounters|GlobalOnlineCounters|ShardTelemetry|OnlineTelemetry|CacheTelemetry|FramePoolWire`),
		reason: "a deleted per-field metrics mirror is back; the scalar table replaces it"},
	{name: "no-metrics-adders", in: code, section: "§5.7 item 3", plant: "package metrics\n\nfunc addShard() {}\n",
		match:  named[*ast.FuncDecl](`^add(Cache|Online|Shard)`),
		reason: "a deleted per-field metrics adder is back; the scalar table merges every row"},
	{name: "oracle-in-tests", in: code, section: "§5.15", plant: "package render\n\ntype oracleRenderer struct{}\n",
		match:  named[*ast.Ident](`oracleRenderer`),
		reason: "the oracle renderer belongs in _test.go files only"},
	{name: "one-static-layer", in: code, want: 1, section: "§5.15", plant: "package render\n\nfunc drawGroundAndSky() {}\n",
		match:  named[*ast.FuncDecl](`^drawGroundAndSky$`),
		reason: "one drawGroundAndSky, the static layer's builder; a second is a second per-frame path"},
	{name: "no-report-mirror", in: code, section: "§5.16", plant: "package vcd\n\ntype QueryCell struct{}\n",
		match:  named[*ast.Ident](`QueryCell|SystemRun|ValidationWire|remoteError|telemetryArtifact|onlineArtifact|metricsArtifact|cellTelemetryJSON|runTelemetryJSON|collectTelemetry`),
		reason: "a deleted report mirror is back; add the field to the vcd type it mirrors"},
	{name: "one-online-driver", in: code, section: "§5.16", plant: "package vcd\n\ntype OnlineRun struct{}\n",
		match:  named[*ast.Ident](`^(RunOnlineOpts|OnlineRun)$`),
		reason: "the second online driver is back; online mode is Options.Online, a way vcd.Run stages an input, reported through the one report path"},
	{name: "one-batch-builder", in: code, section: "§5.16", plant: "package vcd\n\ntype ParamSampler struct{}\n",
		match:  named[*ast.Ident](`^(NewParamSampler|ParamSampler|SampleContext)$`),
		reason: "a second batch builder; batches come from vcd.BuildBatch"},
	{name: "one-batch-loop", in: code, except: []string{"internal/vcd/driver.go"}, section: "§5.10",
		match: named[ast.Node](`\.Tally$|^repro/internal/vcd\.(QueryReport|RunReport)\{\}$`), plant: "package main\n\nfunc f(qr *vcd.QueryReport) { qr.Tally(nil) }\n",
		reason: "a second batch loop: only vcd.RunPlaced tallies a batch and builds a report; a placement returns InstanceResults"},
	{name: "one-tally", in: []string{"internal/vcd/driver.go"}, want: 1, section: "§5.10", plant: "package vcd\n\nfunc f(qr *QueryReport) { qr.Tally(nil) }\n",
		match:  named[*ast.CallExpr](`\.Tally$`),
		reason: "QueryReport.Tally has one caller, the batch loop's runQueryBatch"},
	{name: "fused-kernels", in: []string{"internal/vdbms"}, section: "§5.5", plant: "package vdbms\n\nimport \"repro/internal/queries\"\n\nvar _ = queries.AggregateMean(nil)\n",
		match:  named[*ast.CallExpr](`(JoinPFrame|PMapFrame|AggregateMean)$`),
		reason: "an engine dispatches a closure per pixel or re-sums a window per frame; use the fused kernels of internal/queries"},
	{name: "no-mask-q2d", in: code, section: "§5.5", plant: "package queries\n\nfunc maskFrameQ2d() {}\n",
		match:  named[*ast.Ident](`maskFrameQ2d`),
		reason: "maskFrameQ2d is back; Q2(d) is the sliding window of internal/queries/maskstream.go"},
	{name: "one-result-encoder", in: []string{"internal/vcd"}, want: 1, section: "§5.5", plant: "package vcd\n\nimport \"repro/internal/codec\"\n\nvar _, _ = codec.NewEncoder(codec.Config{})\n",
		match:  named[*ast.CallExpr](`^repro/internal/codec\.NewEncoder$`),
		reason: "one codec.NewEncoder in internal/vcd, the result writer's; results go through resultWriter"},
	{name: "encodevideo-stages-inputs", in: []string{"internal/vcd"}, except: []string{"internal/vcd/batch.go"}, section: "§5.5",
		match: named[*ast.CallExpr](`^repro/internal/codec\.EncodeVideo$`), plant: "package vcd\n\nimport \"repro/internal/codec\"\n\nvar _, _ = codec.EncodeVideo(nil, codec.Config{})\n",
		reason: "codec.EncodeVideo in internal/vcd stages inputs, in batch.go only; results go through resultWriter"},
	{name: "lightdb-streams", in: []string{"internal/vdbms/lightdblike/engine.go"}, section: "§5.5", plant: "package lightdblike\n\nfunc f() { out.Append(nil) }\n",
		match:  named[*ast.CallExpr](`out\.Append$`),
		reason: "lightdblike's evaluation loop collects its output again; write each frame to the video.Writer it is given"},
	{name: "asm-twin", in: []string{"internal/codec", "internal/queries", "internal/video"}, section: "§5.9 item 4", plant: "package codec\n\nfunc copy32SSE2(dst *byte)\n",
		match:  untwinned,
		reason: "an assembly kernel without its Go twin: xSSE2 needs a func xGeneric in its package, and a _test.go file there that uses it"},
	{name: "one-stable-hash", in: code, except: []string{"internal/stablehash/stablehash.go"}, section: "§6", plant: "package main\n\nvar h uint64 = 0x94D049BB133111EB\n",
		match:  named[*ast.BasicLit](`^(14695981039346656037|1099511628211|10723151780598845931|hash/fnv)$`),
		reason: "a second copy of FNV-1a-64 or the splitmix64 finalizer, or hash/fnv; call internal/stablehash, whose outputs partitions, trace IDs and seeds are pinned to"},
	{name: "one-rtp-sender", in: code, want: 1, section: "§5.8", plant: "package main\n\nimport \"repro/internal/stream\"\n\nvar _ = stream.NewRTPSender(nil, 0, 0, nil)\n",
		match:  named[*ast.CallExpr](`^(repro/internal/stream\.)?NewRTPSender$`),
		reason: "one stream.NewRTPSender, SendVideo's; online video reaches every transport through it, so every fault key applies to each"},
	{name: "one-rtp-receiver", in: code, want: 1, section: "§5.8", plant: "package main\n\nimport \"repro/internal/stream\"\n\nvar _ = stream.NewRTPReceiver(nil)\n",
		match:  named[*ast.CallExpr](`^(repro/internal/stream\.)?NewRTPReceiver$`),
		reason: "one stream.NewRTPReceiver, vcd's connect; online mode reads every transport through it, indexing frames by RTP timestamp"},
	{name: "gofmt", in: []string{"."}, tests: true, match: unformatted, plant: "package x\n\nvar  y = 1\n",
		reason: "not gofmt-formatted; run gofmt -w on it"},
}

// A row is one rule: its matcher must find want nodes in its scope, the
// files and directories in less the files in except.
type row struct {
	name, section, reason string
	in, except            []string
	tests                 bool // also read _test.go files
	match                 matcher
	want                  int
	plant                 string // a file that makes the row fire, put at its first scope entry
}

type matcher func(f *srcFile, n ast.Node) bool

// named matches a node of type T whose name, as srcFile.name reads it,
// matches pattern.
func named[T ast.Node](pattern string) matcher {
	re := regexp.MustCompile(pattern)
	return func(f *srcFile, n ast.Node) bool {
		_, ok := n.(T)
		return ok && re.MatchString(f.name(n))
	}
}

// unless matches what m matches but for the names allow matches.
func unless(m matcher, allow string) matcher {
	re := regexp.MustCompile(allow)
	return func(f *srcFile, n ast.Node) bool { return m(f, n) && !re.MatchString(f.name(n)) }
}

// untwinned matches a body-less declaration of a function xSSE2 whose
// package has no Go function xGeneric, or no _test.go file that uses it.
func untwinned(f *srcFile, n ast.Node) bool {
	d, ok := n.(*ast.FuncDecl)
	if !ok || d.Body != nil || !strings.HasSuffix(d.Name.Name, "SSE2") {
		return false
	}
	twin := strings.TrimSuffix(d.Name.Name, "SSE2") + "Generic"
	declared, used := false, false
	for _, g := range f.pkg {
		test := strings.HasSuffix(g.path, "_test.go")
		ast.Inspect(g.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body == nil {
					return false
				}
				declared = declared || !test && n.Recv == nil && n.Name.Name == twin
				ast.Inspect(n.Body, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					used = used || test && ok && id.Name == twin
					return true
				})
				return false
			}
			return true
		})
	}
	return !declared || !used
}

// unformatted matches a file that gofmt would change.
func unformatted(f *srcFile, n ast.Node) bool { return n == f.ast && !f.formatted }

var fset = token.NewFileSet()

type srcFile struct {
	path      string // slash-separated, relative to the module root
	ast       *ast.File
	formatted bool
	imports   map[string]string // local package name → import path
	pkg       []*srcFile        // the files of its directory (load), or itself alone
}

func parse(path string, src []byte) (*srcFile, error) {
	a, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	out, err := format.Source(src)
	f := &srcFile{path: path, ast: a, formatted: err == nil && string(out) == string(src), imports: map[string]string{}}
	f.pkg = []*srcFile{f}
	for _, im := range a.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		local := p[strings.LastIndex(p, "/")+1:]
		if im.Name != nil {
			local = im.Name.Name
		}
		f.imports[local] = p
	}
	return f, nil
}

// name reads a node as the rows match it: an identifier or a declared
// function by its name, a call by its callee as written ("f", "x.y.f")
// but with a package read as its import path ("repro/internal/codec.f"),
// a composite literal likewise by its type and "{}",
// a string literal by its value, a range loop as "range " and its operand,
// an integer literal by its decimal value, and an index expression as
// written.
func (f *srcFile) name(n ast.Node) string {
	switch n := n.(type) {
	case *ast.Ident:
		return n.Name
	case *ast.FuncDecl:
		return n.Name.Name
	case *ast.CallExpr:
		return f.qualified(n.Fun)
	case *ast.CompositeLit:
		if n.Type == nil {
			return ""
		}
		return f.qualified(n.Type) + "{}"
	case *ast.BasicLit:
		if n.Kind == token.INT {
			return constant.MakeFromLiteral(n.Value, n.Kind, 0).ExactString()
		}
		v, _ := strconv.Unquote(n.Value)
		return v
	case *ast.RangeStmt:
		return "range " + types.ExprString(n.X)
	case *ast.IndexExpr:
		return types.ExprString(n)
	}
	return ""
}

// qualified reads an expression as written, but with a package read as
// its import path.
func (f *srcFile) qualified(x ast.Expr) string {
	if s, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
		if id, ok := s.X.(*ast.Ident); ok && f.imports[id.Name] != "" {
			return f.imports[id.Name] + "." + s.Sel.Name
		}
	}
	return types.ExprString(x)
}

// load parses every Go file of the tree outside hidden directories, the
// bench module's included.
func load(t *testing.T) (files []*srcFile) {
	tree := os.DirFS("../..")
	err := fs.WalkDir(tree, ".", func(p string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return fs.SkipDir
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".go") {
			return err
		}
		src, err := fs.ReadFile(tree, p)
		if err == nil {
			var f *srcFile
			f, err = parse(p, src)
			files = append(files, f)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string][]*srcFile{}
	for _, f := range files {
		dirs[path.Dir(f.path)] = append(dirs[path.Dir(f.path)], f)
	}
	for _, f := range files {
		f.pkg = dirs[path.Dir(f.path)]
	}
	return files
}

// check returns the findings of each row, by name: every match when want
// is 0, else a count that is not want, and each scope entry with no file.
func check(rows []row, files []*srcFile) map[string][]string {
	out := map[string][]string{}
	for _, r := range rows {
		seen := make([]bool, len(r.in))
		hits := r.matches(files, seen)
		say := func(at, what string) {
			out[r.name] = append(out[r.name], fmt.Sprintf("%s: %s [guard %s; DESIGN.md %s]", at, what, r.name, r.section))
		}
		for i, ok := range seen {
			if !ok {
				say(r.in[i], "the row's scope matches no file; move the row with the code")
			}
		}
		if r.want == 0 {
			for _, h := range hits {
				say(h, r.reason)
			}
		} else if len(hits) != r.want {
			say(strings.Join(r.in, ", "), fmt.Sprintf("want %d, found %d %v: %s", r.want, len(hits), hits, r.reason))
		}
	}
	return out
}

// matches returns where r matches in the files it reads, marking the
// scope entries that hold one of them.
func (r *row) matches(files []*srcFile, seen []bool) (hits []string) {
	for _, f := range files {
		if r.covers(f.path, seen) {
			ast.Inspect(f.ast, func(n ast.Node) bool {
				if n != nil && r.match(f, n) {
					hits = append(hits, fmt.Sprintf("%s:%d", f.path, fset.Position(n.Pos()).Line))
				}
				return true
			})
		}
	}
	return hits
}

// covers reports whether r reads path, marking the scope entries that hold it.
func (r *row) covers(path string, seen []bool) (in bool) {
	for i, s := range r.in {
		if s == "." || path == s || strings.HasPrefix(path, s+"/") {
			seen[i], in = true, true
		}
	}
	return in && !slices.Contains(r.except, path) && (r.tests || !strings.HasSuffix(path, "_test.go"))
}

func TestGuards(t *testing.T) {
	for _, findings := range check(rows, load(t)) {
		for _, f := range findings {
			t.Error(f)
		}
	}
}

// TestGuardRowsFire wants each row's planted file to fire exactly that
// row: to add a match to a tree that TestGuards finds clean. The first
// five files check a name in a comment, a package imported under
// another name, a field that shares a forbidden function's name, an
// assembly kernel whose twin no test uses and an import of hash/fnv.
func TestGuardRowsFire(t *testing.T) {
	type plant struct{ path, src, want string }
	plants := []plant{
		{"internal/queries", "package queries\n\n// maskFrameQ2d was the per-frame Q2(d) mask.\nvar x int\n", ""},
		{"internal/vcd", "package vcd\n\nimport c \"repro/internal/codec\"\n\nvar _, _ = c.NewEncoder(c.Config{})\n", "one-result-encoder"},
		{"internal/cli", "package cli\n\ntype obs struct{ closeDebug func() error }\n", ""},
		{"internal/queries", "package queries\n\nfunc copy32SSE2()\n\nfunc copy32Generic() {}\n", "asm-twin"}, // a twin no test uses
		{"internal/vdbms", "package vdbms\n\nimport \"hash/fnv\"\n\nvar _ = fnv.New64a\n", "one-stable-hash"},
		{"internal/shard", "package shard\n\nfunc f(qr *vcd.QueryReport) { qr.Tally(nil) }\n", "one-batch-loop"},
	}
	for _, r := range rows {
		plants = append(plants, plant{r.in[0], r.plant, r.name}) // a path equal to a scope entry is in it
	}
	for _, p := range plants {
		f, err := parse(p.path, []byte(p.src))
		if err != nil {
			t.Fatalf("%s: %v", p.path, err)
		}
		var got []string
		for _, r := range rows {
			if r.matches([]*srcFile{f}, make([]bool, len(r.in))) != nil {
				got = append(got, r.name)
			}
		}
		if !slices.Equal(got, strings.Fields(p.want)) {
			t.Errorf("%s %q: rows fired %v, want %q", p.path, p.src, got, p.want)
		}
	}
	// A row whose scope matches no file fails by itself, so renaming a
	// file does not silence the rows that name it.
	if got := check(rows, nil); len(got) != len(rows) {
		t.Errorf("with no files, %d of %d rows report their empty scope", len(got), len(rows))
	}
}
