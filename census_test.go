package sdt_test

// The exported-surface census: an exported identifier declared under
// internal/ must be referenced from non-test Go in internal/, cmd/,
// examples/ or bench/, or through an sdt.go re-export that an example
// or a root sdt_test file actually uses. Code whose only callers are
// its own tests is a design debt (ROADMAP, "quality of design"); this
// test keeps the count at zero. DESIGN.md, "Exported-surface census",
// states the rule and how to add an allowlist entry.

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// censusAllow lists the exported names that may stay without a
// production caller, each with the reason. An entry whose name is gone
// or has gained a caller fails the test, so the list can only shrink.
var censusAllow = map[string]string{
	"controller.Controller.Deployments":      "test seam: controller and core tests count live deployments after deploy/teardown/reconfigure",
	"loadgen.FlowSet.Trace":                  "differential oracle: TestFlowsVsCompiledTrace replays the compiled trace against the live flow app",
	"loadgen.Outcast":                        "WORKLOADS.md catalogue pattern (sdt.PatternOutcast); no registered set drives it — settle with the facade audit, ROADMAP item 5",
	"loadgen.RackLocal":                      "WORKLOADS.md catalogue pattern (sdt.PatternRackLocal); no registered set drives it — settle with the facade audit, ROADMAP item 5",
	"netsim.Network.LinkIsDown":              "test seam: faults, reconfig and core tests assert every drained link is restored",
	"openflow.MatchAll":                      "test fixture: the wildcard match the flow-table tests and the linear-scan oracle build entries from",
	"projection.Allocation.UsedCounts":       "test seam: the leak/double-book invariant of the reconfiguration fuzzer and the controller rollback tests",
	"routing.FIB.Rule":                       "differential oracle's probe: FIB vs Routes.Lookup compared rule by rule (fib_test, FuzzFIBLookup)",
	"telemetry.TransitionRecord.PacketsLost": "per-transition loss window over the exported LostBefore/LostAfter stamps; read by core and telemetry tests only since ReconfigReport.Format left",
	"workload.Trace.TotalBytes":              "test oracle: generator volume checks (alltoall n(n-1)b, compiled FlowSet conserves bytes)",
	"workload.Trace.Validate":                "test oracle: every generator's trace has in-range peers and balanced sends/recvs",
}

// censusAllowMax caps the allowlist: past it, delete code instead.
const censusAllowMax = 15

const censusModule = "repro"

// censusPkg is one directory's non-test files, type-checked once.
type censusPkg struct {
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	err   error
}

// census type-checks the module's own packages from source, so every
// package sees the same types.Object for a shared declaration; the
// standard library comes from go/importer's "source" importer.
type census struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*censusPkg // import path -> package
	errs []string
}

func newCensus() *census {
	// Pure-Go std: the source importer would otherwise run cgo for net.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &census{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*censusPkg{},
	}
}

// parse reads dir's Go files that build here; tests selects the
// _test.go files instead of the others.
func (c *census) parse(dir string, tests bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as package path, recording uses.
func (c *census) check(path string, files []*ast.File) *censusPkg {
	p := &censusPkg{files: files, info: &types.Info{
		Defs: map[*ast.Ident]types.Object{},
		Uses: map[*ast.Ident]types.Object{},
	}}
	conf := types.Config{
		Importer: c,
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
		Error:    func(err error) { c.errs = append(c.errs, err.Error()) },
	}
	p.pkg, p.err = conf.Check(path, c.fset, files, p.info)
	return p
}

// Import resolves module packages from the working tree (non-test
// files only) and everything else from the standard library.
func (c *census) Import(path string) (*types.Package, error) {
	if path != censusModule && !strings.HasPrefix(path, censusModule+"/") {
		return c.std.Import(path)
	}
	if p, ok := c.pkgs[path]; ok {
		return p.pkg, p.err
	}
	files, err := c.parse(filepath.FromSlash("."+strings.TrimPrefix(path, censusModule)), false)
	if err != nil {
		return nil, err
	}
	p := c.check(path, files)
	c.pkgs[path] = p
	return p.pkg, p.err
}

// goDirs lists the directories under root that hold non-test Go files.
func goDirs(t *testing.T, root string) []string {
	t.Helper()
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		files, _ := filepath.Glob(filepath.Join(path, "*.go"))
		if slices.ContainsFunc(files, func(f string) bool { return !strings.HasSuffix(f, "_test.go") }) {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// underInternal reports whether obj is an exported name declared in
// one of the module's internal packages.
func underInternal(obj types.Object) bool {
	return obj != nil && obj.Exported() && obj.Pkg() != nil &&
		strings.HasPrefix(obj.Pkg().Path(), censusModule+"/internal/")
}

// usesIn walks one top-level declaration and reports every internal
// exported object it references, except the declaration's own name
// (recursion is not a caller).
func usesIn(info *types.Info, decl ast.Node, self types.Object, visit func(types.Object)) {
	ast.Inspect(decl, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := info.Uses[id]
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // an instantiated generic counts for its declaration
			}
			if underInternal(obj) && obj != self {
				visit(obj)
			}
		}
		return true
	})
}

// censusName renders obj as pkg.Name or pkg.Type.Method.
func censusName(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			if named, ok := rt.(*types.Named); ok {
				name = named.Obj().Name() + "." + name
			}
		}
	}
	return obj.Pkg().Name() + "." + name
}

// implementsInterface reports whether method m of named type T is
// part of what makes T (or *T) satisfy one of ifaces — such a method is
// called through the interface, not by name.
func implementsInterface(T *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	if T.TypeParams().Len() > 0 {
		return false
	}
	for _, I := range ifaces {
		if im, _, _ := types.LookupFieldOrMethod(I, false, m.Pkg(), m.Name()); im == nil {
			continue
		}
		if types.Implements(T, I) || types.Implements(types.NewPointer(T), I) {
			return true
		}
	}
	return false
}

// stdInterfaces are the standard-library interfaces module types are
// used as; a method implementing one counts as called.
var stdInterfaces = [][2]string{
	{"fmt", "Stringer"},
	{"sort", "Interface"},
	{"io", "Writer"},
}

func TestExportedSurfaceCensus(t *testing.T) {
	c := newCensus()

	// Every non-test package of the module plus the benchmark module,
	// which is read as a consumer and never edited for a deletion.
	var paths []string
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		for _, dir := range goDirs(t, root) {
			paths = append(paths, censusModule+"/"+filepath.ToSlash(dir))
		}
	}
	for _, path := range append(paths, censusModule) {
		if _, err := c.Import(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}
	// The root sdt_test files are the facade's other consumer.
	rootTests, err := c.parse(".", true)
	if err != nil {
		t.Fatal(err)
	}
	facadeTests := c.check(censusModule+"_test", rootTests)
	if len(c.errs) > 0 {
		t.Fatalf("type errors (a deletion broke a consumer?):\n%s", strings.Join(c.errs, "\n"))
	}

	used := map[types.Object]bool{}
	mark := func(obj types.Object) { used[obj] = true }

	// Production references: any non-test file outside the facade.
	for _, path := range paths {
		p := c.pkgs[path]
		for _, f := range p.files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
				}
				usesIn(p.info, decl, self, mark)
			}
		}
	}

	// Facade references: an sdt.go declaration passes its references on
	// only when an example or a root test uses the re-exported name.
	facade := c.pkgs[censusModule]
	facadeUsed := map[types.Object]bool{}
	consumers := []*censusPkg{facadeTests}
	for _, path := range paths {
		if strings.HasPrefix(path, censusModule+"/examples/") {
			consumers = append(consumers, c.pkgs[path])
		}
	}
	for _, p := range consumers {
		for _, obj := range p.info.Uses {
			if obj.Pkg() == facade.pkg {
				facadeUsed[obj] = true
			}
		}
	}
	for _, f := range facade.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if facadeUsed[facade.info.Defs[d.Name]] {
					usesIn(facade.info, d, nil, mark)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.ValueSpec:
						names = s.Names
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					}
					for _, name := range names {
						if facadeUsed[facade.info.Defs[name]] {
							usesIn(facade.info, spec, nil, mark)
						}
					}
				}
			}
		}
	}

	// Interfaces a method may be called through: every interface the
	// module declares, plus the std ones above and error.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, si := range stdInterfaces {
		pkg, err := c.std.Import(si[0])
		if err != nil {
			t.Fatal(err)
		}
		ifaces = append(ifaces, pkg.Scope().Lookup(si[1]).Type().Underlying().(*types.Interface))
	}
	for _, path := range paths {
		scope := c.pkgs[path].pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if I, ok := tn.Type().Underlying().(*types.Interface); ok && I.NumMethods() > 0 {
					ifaces = append(ifaces, I)
				}
			}
		}
	}

	// The census proper: every exported declaration under internal/.
	type offender struct {
		pos  token.Position
		name string
	}
	var offenders []offender
	declared := map[string]bool{}
	unused := map[string]bool{}
	consider := func(obj types.Object, called bool) {
		if !obj.Exported() {
			return
		}
		name := censusName(obj)
		declared[name] = true
		if used[obj] || called {
			return
		}
		unused[name] = true
		if _, ok := censusAllow[name]; !ok {
			offenders = append(offenders, offender{c.fset.Position(obj.Pos()), name})
		}
	}
	for _, path := range paths {
		if !strings.HasPrefix(path, censusModule+"/internal/") {
			continue
		}
		scope := c.pkgs[path].pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			consider(obj, false)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				consider(m, implementsInterface(named, m, ifaces))
			}
			if I, ok := named.Underlying().(*types.Interface); ok {
				for i := 0; i < I.NumExplicitMethods(); i++ {
					consider(I.ExplicitMethod(i), false)
				}
			}
		}
	}

	sort.Slice(offenders, func(i, j int) bool {
		a, b := offenders[i].pos, offenders[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, o := range offenders {
		t.Errorf("%s:%d %s: exported but referenced from no non-test Go (delete it with its tests, or wire it in)",
			o.pos.Filename, o.pos.Line, o.name)
	}
	if len(offenders) > 0 {
		t.Logf("%d offenders", len(offenders))
	}

	if len(censusAllow) > censusAllowMax {
		t.Errorf("allowlist has %d entries, cap is %d", len(censusAllow), censusAllowMax)
	}
	for name, reason := range censusAllow {
		switch {
		case reason == "":
			t.Errorf("allowlist entry %s carries no reason", name)
		case !declared[name]:
			t.Errorf("stale allowlist entry %s: no such exported name under internal/", name)
		case !unused[name]:
			t.Errorf("stale allowlist entry %s: it has a production caller now", name)
		}
	}
}
