package sdt_test

// The exported-surface census: an exported identifier declared under
// internal/ must be referenced from non-test Go in internal/, cmd/,
// examples/ or bench/, or through an sdt.go re-export that an example
// or a root sdt_test file actually uses; and an unexported top-level
// func of the module's non-test Go must be referenced from non-test Go
// of its own package. Code whose only callers are its own tests is a
// design debt (ROADMAP, "quality of design"); this test keeps the count
// at zero. DESIGN.md, "Exported-surface census", states the rule and
// how to add an allowlist entry.

import (
	"fmt"
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
	"sync"
	"testing"
)

// censusAllow lists the exported names that may stay without a
// production caller, each with the reason. An entry whose name is gone
// or has gained a caller fails the test, so the list can only shrink.
var censusAllow = map[string]string{
	"controller.Controller.Deployments": "test seam: controller, core and reconfig tests count live deployments after deploy/teardown/reconfigure",
	"loadgen.FlowSet.Trace":             "differential oracle: TestFlowsVsCompiledTrace replays the compiled trace against the live flow app",
	"openflow.MatchAll":                 "test fixture: the wildcard match the flow-table tests build entries from",
	"projection.Allocation.UsedCounts":  "test seam: the controller's tests read the port ledger after a rollback or a Check",
	"workload.Trace.Validate":           "test oracle: every generator's trace has in-range peers and balanced sends/recvs",
}

// censusAllowMax caps the allowlist: past it, delete code instead.
const censusAllowMax = 5

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

	// What load checked: the non-test packages under internal/, cmd/,
	// examples/ and bench/, in directory order, and the root sdt_test
	// files.
	paths  []string
	facade *censusPkg
}

var (
	censusOnce    sync.Once
	censusShared  *census
	censusLoadErr error
)

// loadCensus returns the census every census test reads, type-checked
// once per test binary: checking the standard library from source is
// most of a census's cost, and the tests only read what it holds.
func loadCensus(t *testing.T) *census {
	t.Helper()
	censusOnce.Do(func() {
		censusShared = newCensus()
		censusLoadErr = censusShared.load()
	})
	if censusLoadErr != nil {
		t.Fatal(censusLoadErr)
	}
	return censusShared
}

// load type-checks every non-test package of the module and of the
// benchmark module, which is read as a consumer, the root package, and
// the root sdt_test files, the facade's other consumer.
func (c *census) load() error {
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		dirs, err := goDirs(root)
		if err != nil {
			return err
		}
		for _, dir := range dirs {
			c.paths = append(c.paths, censusModule+"/"+filepath.ToSlash(dir))
		}
	}
	for _, path := range append(c.paths, censusModule) {
		if _, err := c.Import(path); err != nil {
			return fmt.Errorf("type-check %s: %v", path, err)
		}
	}
	rootTests, err := c.parse(".", true)
	if err != nil {
		return err
	}
	c.facade = c.check(censusModule+"_test", rootTests)
	if len(c.errs) > 0 {
		return fmt.Errorf("type errors (a deletion broke a consumer?):\n%s", strings.Join(c.errs, "\n"))
	}
	return nil
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
func goDirs(root string) ([]string, error) {
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
	return dirs, err
}

// underInternal reports whether obj is an exported name declared in
// one of the module's internal packages.
func underInternal(obj types.Object) bool {
	return obj != nil && obj.Exported() && obj.Pkg() != nil &&
		strings.HasPrefix(obj.Pkg().Path(), censusModule+"/internal/")
}

// usesIn walks one top-level declaration and reports every object it
// references, except the declaration's own name (recursion is not a
// caller) and, for a method, its receiver's type: declaring a method
// on a type does not use the type.
func usesIn(info *types.Info, decl ast.Node, self types.Object, visit func(types.Object)) {
	var recv *ast.FieldList
	if fd, ok := decl.(*ast.FuncDecl); ok {
		recv = fd.Recv
	}
	ast.Inspect(decl, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FieldList); ok && fl == recv {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			obj := info.Uses[id]
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // an instantiated generic counts for its declaration
			}
			if obj != nil && obj != self {
				visit(obj)
			}
		}
		return true
	})
}

// TestCensusSkipsReceivers holds usesIn to its receiver rule: an
// exported type whose only mentions are its own methods' receivers —
// a String method's included — is used by nothing, so the census
// flags it; any other mention uses it.
func TestCensusSkipsReceivers(t *testing.T) {
	const src = `package p

type Unused struct{}

func (u Unused) String() string { return "u" }

func (u *Unused) Touch() {}

type Used struct{}

func (Used) String() string { return "used" }

func NewUsed() Used { return Used{} }
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	pkg, err := new(types.Config).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	uses := map[types.Object][]string{}
	for _, decl := range f.Decls {
		var self types.Object
		name := "type"
		if fd, ok := decl.(*ast.FuncDecl); ok {
			self, name = info.Defs[fd.Name], fd.Name.Name
		}
		usesIn(info, decl, self, func(obj types.Object) { uses[obj] = append(uses[obj], name) })
	}
	if by := uses[pkg.Scope().Lookup("Unused")]; len(by) > 0 {
		t.Errorf("Unused is referenced by %v, want by nothing: its receivers are not uses", by)
	}
	if by := uses[pkg.Scope().Lookup("Used")]; !slices.Equal(by, []string{"NewUsed", "NewUsed"}) {
		t.Errorf("Used is referenced by %v, want by NewUsed's result and body, not by String's receiver", by)
	}
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
	{"math/rand", "Source"},
}

func TestExportedSurfaceCensus(t *testing.T) {
	// Every non-test package of the module plus the benchmark module,
	// which is read as a consumer and never edited for a deletion.
	c := loadCensus(t)
	paths := c.paths

	used := map[types.Object]bool{}
	mark := func(obj types.Object) {
		if underInternal(obj) {
			used[obj] = true
		}
	}

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
	consumers := []*censusPkg{c.facade}
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

	// Unexported top-level funcs: a reference can only come from the
	// func's own package, so each package is checked alone. bench/ is
	// left out: it is a consumer, not edited for a deletion.
	for _, path := range append(paths, censusModule) {
		if strings.HasPrefix(path, censusModule+"/bench") {
			continue
		}
		p := c.pkgs[path]
		called := map[types.Object]bool{}
		var funcs []types.Object
		for _, f := range p.files {
			for _, decl := range f.Decls {
				var self types.Object
				if fd, ok := decl.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
					if fd.Recv == nil {
						funcs = append(funcs, self)
					}
				}
				usesIn(p.info, decl, self, func(obj types.Object) { called[obj] = true })
			}
		}
		for _, fn := range funcs {
			if name := fn.Name(); !fn.Exported() && name != "init" && name != "main" && !called[fn] {
				pos := c.fset.Position(fn.Pos())
				t.Errorf("%s:%d %s.%s: unexported func referenced from no non-test Go (delete it, or move it into a _test.go file)",
					pos.Filename, pos.Line, p.pkg.Name(), name)
			}
		}
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

// declsUsing returns, sorted and without repeats, the top-level
// declarations ("pkg.Func") of the module's non-test Go outside bench/
// that reference any of targets.
func declsUsing(c *census, targets ...types.Object) []string {
	var callers []string
	for _, path := range append([]string{censusModule}, c.paths...) {
		if strings.HasPrefix(path, censusModule+"/bench") {
			continue
		}
		p := c.pkgs[path]
		for _, f := range p.files {
			for _, decl := range f.Decls {
				name := "a package-level declaration"
				if fd, ok := decl.(*ast.FuncDecl); ok {
					name = fd.Name.Name
				}
				usesIn(p.info, decl, nil, func(obj types.Object) {
					if slices.Contains(targets, obj) {
						callers = append(callers, p.pkg.Name()+"."+name)
					}
				})
			}
		}
	}
	slices.Sort(callers)
	return slices.Compact(callers)
}

// onePathRules are the "one path" rules: outside bench/ and tests,
// only the allowed callers may reference the callees. A callee is a
// name in pkg, "Func" or "Type.Method"; an allowed caller is a package
// ("controller") or a top-level declaration ("core.runScenario"). The
// first allowed caller must itself reference a callee, so a rule that
// no longer sees its path fails too.
var onePathRules = []struct {
	name    string
	pkg     string
	callees []string
	allowed []string
	how     string // the way every other caller should take
}{
	// One driver of the event loop (netsim.Sim aliases the engine), so
	// every validation rule, observer and cancellation reaches every
	// simulation.
	{"execution", "engine", []string{"Engine.Run"}, []string{"core.runScenario"},
		"drive a simulation through core.Run or core.Sweep"},
	// One deployer books physical ports, so every topology installed on
	// the testbed, a mid-run reconfiguration's included, goes through
	// controller.Deploy and controller.Reconfigure.
	{"deploy", "projection", []string{"NewAllocation", "ProjectInto", "Plan.Acquire", "Plan.Release"}, []string{"controller", "projection"},
		"deploy and reconfigure through a controller.Controller"},
	// One hop-by-hop walk of the rules (Routes.Walk), so TracePath, the
	// deadlock verifier and flowsim's paths share one loop bound and one
	// set of errors. projection looks up one hop only: the injection
	// rule a host's first switch applies.
	{"walk", "routing", []string{"Routes.Lookup"}, []string{"routing", "projection"},
		"walk a path with routing.Routes.Walk"},
}

// TestOnePath checks each of onePathRules on the census.
func TestOnePath(t *testing.T) {
	c := loadCensus(t)
	for _, rule := range onePathRules {
		t.Run(rule.name, func(t *testing.T) {
			pkg, err := c.Import(censusModule + "/internal/" + rule.pkg)
			if err != nil {
				t.Fatal(err)
			}
			var callees []types.Object
			var names []string
			for _, name := range rule.callees {
				names = append(names, rule.pkg+"."+name)
				typ, method, isMethod := strings.Cut(name, ".")
				obj := pkg.Scope().Lookup(typ)
				if isMethod && obj != nil {
					obj, _, _ = types.LookupFieldOrMethod(types.NewPointer(obj.Type()), false, pkg, method)
				}
				if obj == nil {
					t.Fatalf("%s has no %s", rule.pkg, name)
				}
				callees = append(callees, obj)
			}
			allowed := func(caller, by string) bool {
				callerPkg, _, _ := strings.Cut(caller, ".")
				return caller == by || callerPkg == by
			}
			seen := false
			var others []string
			for _, caller := range declsUsing(c, callees...) {
				seen = seen || allowed(caller, rule.allowed[0])
				if !slices.ContainsFunc(rule.allowed, func(by string) bool { return allowed(caller, by) }) {
					others = append(others, caller)
				}
			}
			if !seen {
				t.Errorf("%s references none of %s: the census no longer sees the path", rule.allowed[0], strings.Join(names, ", "))
			}
			if len(others) > 0 {
				t.Errorf("%v reference %s, want only %v: %s", others, strings.Join(names, ", "), rule.allowed, rule.how)
			}
		})
	}
}

// simConfigAllow lists the netsim.Config fields that may stay with no
// setter and no benchmark reader, each with its reason. An entry whose
// field is gone or has gained a setter fails the test.
var simConfigAllow = map[string]string{
	"CrossbarBps":    "SDT-only model term: ROADMAP 13(a) neutralises it, and TestCrossbarModelPinned sets it",
	"SDTPerHopExtra": "SDT-only model term: ROADMAP 13(b) neutralises it, and TestCrossbarModelPinned sets it",
}

// TestSimConfigKnobs holds netsim.Config to the knobs someone turns:
// each field must be set by non-test Go outside internal/netsim (a
// write, as fieldWrites classifies it), read by bench/, or allowlisted
// above. A field nothing sets is a constant.
func TestSimConfigKnobs(t *testing.T) {
	c := loadCensus(t)
	netsim, err := c.Import(censusModule + "/internal/netsim")
	if err != nil {
		t.Fatal(err)
	}
	st := netsim.Scope().Lookup("Config").Type().Underlying().(*types.Struct)
	fields := map[types.Object]bool{}
	for i := 0; i < st.NumFields(); i++ {
		fields[st.Field(i)] = true
	}
	set := map[types.Object]bool{}
	for _, path := range append([]string{censusModule}, c.paths...) {
		if path == netsim.Path() {
			continue
		}
		p := c.pkgs[path]
		bench := strings.HasPrefix(path, censusModule+"/bench")
		written := fieldWrites(p.files)
		for id, obj := range p.info.Uses {
			if fields[obj] && (bench || written[id]) {
				set[obj] = true
			}
		}
	}
	declared := map[string]bool{}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		declared[f.Name()] = true
		_, allowed := simConfigAllow[f.Name()]
		switch {
		case set[f] && allowed:
			t.Errorf("stale allowlist entry %s: something sets it or the benchmark reads it now", f.Name())
		case !set[f] && !allowed:
			t.Errorf("netsim.Config.%s: set by no non-test Go outside internal/netsim and read by no benchmark; make it a constant", f.Name())
		}
	}
	for name := range simConfigAllow {
		if !declared[name] {
			t.Errorf("stale allowlist entry %s: netsim.Config has no such field", name)
		}
	}
}

// fieldWrites returns the identifiers in files that name a field being
// written: the selector of an assignment or op-assignment target or of
// a ++/-- operand, and the key of a keyed composite-literal element.
// Every other mention of a field reads it; x.f[i] = v and x.f.g = v
// read f.
func fieldWrites(files []*ast.File) map[*ast.Ident]bool {
	written := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[sel.Sel] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range x.Lhs {
					target(lhs)
				}
			case *ast.IncDecStmt:
				target(x.X)
			case *ast.KeyValueExpr:
				if id, ok := x.Key.(*ast.Ident); ok {
					written[id] = true
				}
			}
			return true
		})
	}
	return written
}

// fieldAllow lists the struct fields non-test Go may write without
// reading, each with its reason: values a test observes, kept because
// no production reader needs them. An entry whose field is gone or has
// gained a reader fails the test, so the list can only shrink.
var fieldAllow = map[string]string{
	"netsim.Packet.ID":            "test observable: wire-order tests tell packets apart by it, and the tuple streams of ROADMAP 2(b) and 18 key on it",
	"netsim.Host.DeliveredBytes":  "test observable: byte conservation (ROADMAP 2(a)) sums it over hosts",
	"netsim.Network.DeliveredPkt": "test observable: packet conservation (ROADMAP 2(a)) checks it against injected and dropped",
	"netsim.GoodputSample.At":     "test observable: fig12's test checks each goodput sample's time",
	"partition.Result.Imbalance":  "test observable: partition tests check the balance the cut achieved",
	"flowsim.Result.Completed":    "test observable: flowsim tests check how many flows finished",
	"reconfig.Stage.Desc":         "test observable: reconfig tests check what each stage did",
	"reconfig.Stage.Lost":         "test observable: reconfig tests check the packets each stage lost",
}

// fieldAllowMax caps fieldAllow: past it, delete fields instead.
const fieldAllowMax = 8

// TestFieldsHaveReaders holds every non-embedded, untagged field of a
// struct declared in non-test Go under internal/ to a reader: if
// non-test Go (internal/, cmd/, examples/, bench/ and sdt.go) writes
// it, as fieldWrites classifies a write, some non-test Go must also
// read it. A field nothing reads is state kept for nobody. Tagged
// fields are read by encoding/json and the like, so they are left out.
func TestFieldsHaveReaders(t *testing.T) {
	c := loadCensus(t)
	paths := append([]string{censusModule}, c.paths...)

	// The fields in scope, with the name each is reported under.
	names := map[*types.Var]string{}
	for _, path := range paths {
		if !strings.HasPrefix(path, censusModule+"/internal/") {
			continue
		}
		p := c.pkgs[path]
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return true
				}
				for _, fld := range st.Fields.List {
					if fld.Tag != nil {
						continue
					}
					for _, id := range fld.Names {
						names[p.info.Defs[id].(*types.Var)] = p.pkg.Name() + "." + ts.Name.Name + "." + id.Name
					}
				}
				return true
			})
		}
	}

	read := map[*types.Var]bool{}
	written := map[*types.Var]bool{}
	for _, path := range paths {
		p := c.pkgs[path]
		writes := fieldWrites(p.files)
		for id, obj := range p.info.Uses {
			v, ok := obj.(*types.Var)
			if !ok || !v.IsField() {
				continue
			}
			v = v.Origin() // a field of an instantiated generic counts for its declaration
			if writes[id] {
				written[v] = true
			} else {
				read[v] = true
			}
		}
	}

	var offenders []string
	declared := map[string]bool{}
	unread := map[string]bool{}
	for v, name := range names {
		declared[name] = true
		if !written[v] || read[v] {
			continue
		}
		unread[name] = true
		if _, ok := fieldAllow[name]; !ok {
			pos := c.fset.Position(v.Pos())
			offenders = append(offenders, fmt.Sprintf("%s:%d %s", pos.Filename, pos.Line, name))
		}
	}
	slices.Sort(offenders)
	for _, o := range offenders {
		t.Errorf("%s: written by non-test Go but read by none (delete the field and its writes)", o)
	}

	if len(fieldAllow) > fieldAllowMax {
		t.Errorf("field allowlist has %d entries, cap is %d", len(fieldAllow), fieldAllowMax)
	}
	for name, reason := range fieldAllow {
		switch {
		case reason == "":
			t.Errorf("field allowlist entry %s carries no reason", name)
		case !declared[name]:
			t.Errorf("stale field allowlist entry %s: no such field under internal/", name)
		case !unread[name]:
			t.Errorf("stale field allowlist entry %s: non-test Go reads it now, or writes it no more", name)
		}
	}
}
