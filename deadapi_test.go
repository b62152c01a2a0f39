package sidechannel

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
	"sort"
	"strings"
	"testing"
)

// deadAPIAllowlist names the exported declarations in internal/ that have no
// non-test use in this module and stay anyway, each with its reason. Keys
// are "<package dir under internal/>.<Name>" or "<dir>.<Type>.<Method>". An
// entry whose declaration gains a use or disappears is stale and fails the
// test, so the list cannot rot.
var deadAPIAllowlist = map[string]string{
	"avr.FlagI": "completes the SREG bit table; the simulator never sets the interrupt flag",
	"avr.RegXH": "completes the X/Y/Z pointer register table",
	"avr.RegYH": "completes the X/Y/Z pointer register table",
	"avr.RegZH": "completes the X/Y/Z pointer register table",

	"core.Disassembler.Classify": "the facade's single-trace decode; TestDecodeAllocationBudget, TestSparseSpeedupBudget and BENCH_pipeline.json measure it",

	"core.TrainSubset":                    "scdisbench's set-up calls it; ROADMAP item 1 moves it to TrainSubsetReportCtx",
	"core.Disassembler.DisassembleScored": "scdisbench's replay calls it; ROADMAP item 1 moves it to DisassembleScoredCtx",

	"store.File.Sections":      "internal/core's corruption tests walk the section directory, and a store test file cannot serve another package",
	"store.File.PayloadOffset": "internal/core's corruption and fuzz tests locate section bytes, and a store test file cannot serve another package",
}

// deadAPIPinned are the declarations the scdisbench module calls and this
// module does not. They are permitted but not checked for staleness:
// ROADMAP item 1 moves scdisbench off them and then deletes them.
var deadAPIPinned = map[string]string{
	"core.Disassembler.SetSparseModePreferred": "scdisbench replay",
	"core.Disassembler.SparseEnabled":          "scdisbench replay",
	"core.SparseAuto":                          "scdisbench replay",
	"dsp.SparseCWT.Values":                     "scdisbench replay",
	"features.Pipeline.ExtractSparse":          "scdisbench replay",
	"features.Pipeline.SparseCells":            "scdisbench replay",
	"serve.Server.Handler":                     "scdisbench load generator",
	"store.Options":                            "scdisbench fleet set-up",
}

// TestNoDeadInternalAPI type-checks every non-test package of this module
// and fails on any exported declaration in internal/ that nothing outside
// its own declaration and outside _test.go files uses. internal/testkit is
// test-only by design and exempt, and so is a method whose receiver type
// satisfies an interface that has that method (String, Error, Fit, …): it
// is called through the interface. Everything else is deleted, moved into
// the test that uses it, or listed in deadAPIAllowlist with its reason.
func TestNoDeadInternalAPI(t *testing.T) {
	dead, err := scanDeadAPI(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedKeys(deadAPIAllowlist) {
		if strings.TrimSpace(deadAPIAllowlist[name]) == "" {
			t.Errorf("deadAPIAllowlist[%q] names no reason", name)
		}
		if _, ok := dead[name]; !ok {
			t.Errorf("deadAPIAllowlist[%q] is stale: the declaration is gone or now has a non-test use; drop the entry", name)
		}
	}
	for _, name := range sortedKeys(dead) {
		if deadAPIAllowlist[name] != "" || deadAPIPinned[name] != "" {
			continue
		}
		t.Errorf("%s: exported %s has no non-test use in this module; delete it, move it into the test that uses it, or add it to deadAPIAllowlist with its reason", dead[name], name)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// scanDeadAPI returns the unused exported declarations of root's internal/
// packages, keyed as in deadAPIAllowlist, each with its position.
func scanDeadAPI(root string) (map[string]token.Position, error) {
	modData, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(modData), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			modPath = f[1]
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("no module line in %s/go.mod", root)
	}

	// The source importer reads the standard library through build.Default.
	// With cgo off it picks the pure-Go files and never runs the C
	// toolchain, which this scan has no use for.
	saved := build.Default
	defer func() { build.Default = saved }()
	build.Default.CgoEnabled = false
	ctxt := build.Default

	fset := token.NewFileSet()
	m := &moduleImporter{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if path != root {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		importPath := modPath
		if rel != "." {
			importPath += "/" + filepath.ToSlash(rel)
		}
		for _, e := range entries {
			fn := e.Name()
			if e.IsDir() || !strings.HasSuffix(fn, ".go") || strings.HasSuffix(fn, "_test.go") {
				continue
			}
			if ok, err := ctxt.MatchFile(path, fn); err != nil || !ok {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(path, fn), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			m.files[importPath] = append(m.files[importPath], f)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, path := range sortedKeys(m.files) {
		if _, err := m.Import(path); err != nil {
			return nil, err
		}
	}

	// Declarations under review and the span of source that is their own
	// (a function's body, a type's spec and its methods' receivers): a use
	// there does not count.
	type decl struct {
		key  string
		pos  token.Pos
		self []ast.Node
		used bool
		recv *types.Named // the receiver's type, for a method
		name string
	}
	type receiver struct {
		typ   types.Object
		field *ast.FieldList
	}
	decls := map[types.Object]*decl{}
	var receivers []receiver
	internal := modPath + "/internal/"
	testkit := internal + "testkit"
	for _, path := range sortedKeys(m.files) {
		if !strings.HasPrefix(path, internal) || path == testkit {
			continue
		}
		short := strings.TrimPrefix(path, internal)
		for _, f := range m.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj, _ := m.info.Defs[d.Name].(*types.Func)
					if obj == nil {
						continue
					}
					key := short + "." + obj.Name()
					var recv *types.Named
					if d.Recv != nil {
						if recv = receiverNamed(obj); recv == nil {
							continue
						}
						receivers = append(receivers, receiver{recv.Obj(), d.Recv})
						key = short + "." + recv.Obj().Name() + "." + obj.Name()
					}
					if obj.Exported() {
						decls[obj] = &decl{key: key, pos: obj.Pos(), self: []ast.Node{d}, recv: recv, name: obj.Name()}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if obj := m.info.Defs[s.Name]; obj != nil && obj.Exported() {
								decls[obj] = &decl{key: short + "." + obj.Name(), pos: obj.Pos(), self: []ast.Node{s}}
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if obj := m.info.Defs[n]; obj != nil && obj.Exported() {
									decls[obj] = &decl{key: short + "." + obj.Name(), pos: obj.Pos(), self: []ast.Node{s}}
								}
							}
						}
					}
				}
			}
		}
	}
	for _, r := range receivers {
		if td := decls[r.typ]; td != nil {
			td.self = append(td.self, r.field)
		}
	}

	for id, obj := range m.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		d := decls[obj]
		if d == nil || d.used {
			continue
		}
		inside := false
		for _, n := range d.self {
			if n.Pos() <= id.Pos() && id.Pos() < n.End() {
				inside = true
				break
			}
		}
		if !inside {
			d.used = true
		}
	}

	ifaces := m.interfaces()
	dead := map[string]token.Position{}
	for _, d := range decls {
		if d.used {
			continue
		}
		if d.recv != nil && satisfiesInterfaceWith(d.recv, d.name, ifaces) {
			continue
		}
		dead[d.key] = fset.Position(d.pos)
	}
	return dead, nil
}

// receiverNamed returns the named type a method is declared on.
func receiverNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// satisfiesInterfaceWith reports whether T or *T implements some interface
// that has a method called name.
func satisfiesInterfaceWith(t *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	for _, it := range ifaces[name] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// moduleImporter type-checks this module's packages from their parsed files,
// in import order, and the standard library from source.
type moduleImporter struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	files map[string][]*ast.File
	pkgs  map[string]*types.Package
	info  *types.Info
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	files, ours := m.files[path]
	if !ours {
		return m.std.ImportFrom(path, "", 0)
	}
	if pkg, ok := m.pkgs[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return pkg, nil
	}
	m.pkgs[path] = nil
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	return pkg, nil
}

// interfaces indexes, by method name, every interface type this module's
// code mentions and every named interface of the packages it imports,
// transitively, plus the predeclared error and the unnamed interfaces
// errors.Is, errors.As and errors.Unwrap assert inside their bodies, which
// the source importer does not type-check.
func (m *moduleImporter) interfaces() map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || it.NumMethods() == 0 {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			out[name] = append(out[name], it)
		}
	}
	errType := types.Universe.Lookup("error").Type()
	add(errType)
	tuple := func(t types.Type) *types.Tuple { return types.NewTuple(types.NewVar(token.NoPos, nil, "", t)) }
	for _, m := range []struct {
		name        string
		params, res *types.Tuple
	}{
		{"Unwrap", nil, tuple(errType)},
		{"Unwrap", nil, tuple(types.NewSlice(errType))},
		{"Is", tuple(errType), tuple(types.Typ[types.Bool])},
		{"As", tuple(types.Universe.Lookup("any").Type()), tuple(types.Typ[types.Bool])},
	} {
		sig := types.NewSignatureType(nil, nil, nil, m.params, m.res, false)
		add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, m.name, sig)}, nil).Complete())
	}
	for _, tv := range m.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range m.pkgs {
		walk(p)
	}
	return out
}
