package sprinklers_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// exportAllowlist names the exported identifiers under internal/ that may
// stay without a production caller, each with the reason. Keys are
// "pkg.Name" or "pkg.Type.Method", pkg being the directory under internal/.
// An entry the rule no longer needs fails the gate, so the list only shrinks.
var exportAllowlist = map[string]string{
	"pf.Switch.PaddingInjected": "integration's record round-trip test must see PF pad, from outside pf",
	"service.Server.Counters":   "the cluster tests read each node's process counters, which production folds into TotalCounters",
	"sim.ObserverFunc":          "the func adapter for sim.Observer, used by the tests of four packages",
}

// exportExemptPackages are not checked, and their references do not count
// as production callers: switchtest is the test-support package, and
// faultinject is the chaos seam service.Options.Fault exposes to the
// cluster tests.
var exportExemptPackages = map[string]bool{
	"switchtest":  true,
	"faultinject": true,
}

// TestExportsHaveProductionCallers requires every exported package-level
// func, type, var and const, and every exported method, declared in a
// non-test file under internal/ to be referenced from a non-test file of
// the module other than its own. cmd/, examples/, benchmark/ and the root
// facade count as callers. A method is exempt when it lets its type satisfy
// an interface of the module or the standard library, or when its type is
// part of the facade's API (facadeAPI); a type is exempt when it is
// reachable from a passing identifier's signature, type or exported fields.
// It uses only go/parser, go/types and go/importer, with package files and
// export data from `go list`.
func TestExportsHaveProductionCallers(t *testing.T) {
	m := loadModule(t)
	fset, info := m.fset, m.info
	type decl struct {
		key  string
		file string
		obj  types.Object
	}
	var decls []decl
	exemptFiles := map[string]bool{}
	internal := m.path + "/internal/"
	for _, p := range m.pkgs {
		rel, ok := strings.CutPrefix(p.ImportPath, internal)
		if !ok {
			continue
		}
		if exportExemptPackages[rel] {
			for _, f := range m.files[p.ImportPath] {
				exemptFiles[fset.Position(f.Pos()).Filename] = true
			}
			continue
		}
		for _, f := range m.files[p.ImportPath] {
			file := fset.Position(f.Pos()).Filename
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					key := rel + "." + d.Name.Name
					if d.Recv != nil {
						key = rel + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
					}
					decls = append(decls, decl{key, file, info.Defs[d.Name]})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							if n.IsExported() {
								decls = append(decls, decl{rel + "." + n.Name, file, info.Defs[n]})
							}
						}
					}
				}
			}
		}
	}

	declFile := map[types.Object]string{}
	for _, d := range decls {
		declFile[d.obj] = d.file
	}
	passing := map[types.Object]bool{}
	for id, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		caller := fset.Position(id.Pos()).Filename
		if f, ok := declFile[obj]; ok && f != caller && !exemptFiles[caller] {
			passing[obj] = true
		}
	}
	var instances []types.Type
	for _, inst := range info.Instances {
		if _, ok := inst.Type.(*types.Named); ok {
			instances = append(instances, inst.Type)
		}
	}
	for _, d := range decls {
		if fn, ok := d.obj.(*types.Func); ok && satisfiesInterface(fn, m.interfaces, instances) {
			passing[d.obj] = true
		}
	}
	// A downstream user reaches the facade's types through their aliases,
	// so every exported method of those types is public API.
	_, facadeTypes := facadeAPI(m)
	for _, n := range facadeTypes {
		for _, fn := range methods(n) {
			passing[fn.Origin()] = true
		}
	}

	// Every type a passing identifier's signature, type or exported fields
	// reach passes too, until nothing new is reached.
	var work []types.Object
	for obj := range passing {
		work = append(work, obj)
	}
	mark := func(obj types.Object) {
		if _, ok := declFile[obj]; ok && !passing[obj] {
			passing[obj] = true
			work = append(work, obj)
		}
	}
	seen := map[types.Type]bool{}
	var reach func(types.Type)
	reach = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch typ := typ.(type) {
		case *types.Named:
			mark(typ.Origin().Obj())
			for i := 0; i < typ.TypeArgs().Len(); i++ {
				reach(typ.TypeArgs().At(i))
			}
		case *types.Alias:
			mark(typ.Obj())
			reach(types.Unalias(typ))
		default:
			for _, elem := range components(typ) {
				reach(elem)
			}
		}
	}
	for len(work) > 0 {
		obj := work[len(work)-1]
		work = work[:len(work)-1]
		if tn, ok := obj.(*types.TypeName); ok {
			if tn.IsAlias() {
				reach(tn.Type())
			} else {
				reach(tn.Type().Underlying())
			}
		} else {
			reach(obj.Type())
		}
	}

	var flagged []string
	stillNeeded := map[string]bool{}
	for _, d := range decls {
		if passing[d.obj] {
			continue
		}
		if _, ok := exportAllowlist[d.key]; ok {
			stillNeeded[d.key] = true
			continue
		}
		flagged = append(flagged, fmt.Sprintf("%s (%s)", d.key, fset.Position(d.obj.Pos())))
	}
	sort.Strings(flagged)
	for _, f := range flagged {
		t.Errorf("exported but no non-test caller outside its file: %s", f)
	}
	for key := range exportAllowlist {
		if !stillNeeded[key] {
			t.Errorf("allowlist entry %s is no longer needed: delete it", key)
		}
	}
	if len(flagged) > 0 {
		t.Logf("resolve each: delete it, unexport it, move it into the tests that use it, or, as a last resort, allowlist it with a reason")
	}
}

var updateFacade = flag.Bool("update-facade", false, "rewrite testdata/facade_api.txt from the current facade")

// TestFacadeAPI pins the facade's whole API: its exported identifiers and,
// for every module type they reach through aliases, signatures and exported
// fields, the exported fields and methods. go doc lists an alias but not the
// methods of the type behind it, so a method deleted from stats.Delay would
// change the API that sprinklers.DelayStats offers without changing go doc.
// An intended API change is recorded with `go test . -run TestFacadeAPI
// -update-facade`.
func TestFacadeAPI(t *testing.T) {
	lines, _ := facadeAPI(loadModule(t))
	got := strings.Join(lines, "\n") + "\n"
	const golden = "testdata/facade_api.txt"
	if *updateFacade {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	have := map[string]bool{}
	for _, l := range lines {
		have[l] = true
	}
	pinned := map[string]bool{}
	for _, l := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		pinned[l] = true
		if !have[l] {
			t.Errorf("facade API lost: %s", l)
		}
	}
	for _, l := range lines {
		if !pinned[l] {
			t.Errorf("facade API gained: %s", l)
		}
	}
	t.Logf("if the change is intended, rerun with -update-facade")
}

// facadeAPI lists the root package's exported identifiers, then every
// module type they reach, with its exported fields and methods, and returns
// the sorted lines and the reached types.
func facadeAPI(m *module) ([]string, []*types.Named) {
	qual := func(p *types.Package) string { return p.Name() }
	var lines []string
	found := map[*types.Named]bool{}
	var order []*types.Named
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(typ types.Type) {
		if typ == nil || seen[typ] {
			return
		}
		seen[typ] = true
		switch typ := typ.(type) {
		case *types.Alias:
			walk(types.Unalias(typ))
		case *types.Named:
			for i := 0; i < typ.TypeArgs().Len(); i++ {
				walk(typ.TypeArgs().At(i))
			}
			n := typ.Origin()
			if n.Obj().Pkg() == nil || !strings.HasPrefix(n.Obj().Pkg().Path()+"/", m.path+"/") || found[n] {
				return
			}
			found[n] = true
			order = append(order, n)
			name := types.TypeString(n, qual)
			switch u := n.Underlying().(type) {
			case *types.Struct:
				lines = append(lines, "type "+name+" struct")
				for i := 0; i < u.NumFields(); i++ {
					if f := u.Field(i); f.Exported() {
						lines = append(lines, "field "+name+"."+f.Name()+" "+types.TypeString(f.Type(), qual))
						walk(f.Type())
					}
				}
			case *types.Interface:
				lines = append(lines, "type "+name+" interface")
				for i := 0; i < u.NumMethods(); i++ {
					fn := u.Method(i)
					lines = append(lines, "method "+name+"."+fn.Name()+" "+types.TypeString(fn.Type(), qual))
					walk(fn.Type())
				}
			default:
				lines = append(lines, "type "+name+" "+types.TypeString(u, qual))
				walk(u)
			}
			for _, fn := range methods(n) {
				lines = append(lines, "method "+name+"."+fn.Name()+" "+types.TypeString(fn.Type(), qual))
				walk(fn.Type())
			}
		default:
			for _, elem := range components(typ) {
				walk(elem)
			}
		}
	}
	scope := m.checked[m.path].Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		lines = append(lines, types.ObjectString(obj, qual))
		walk(obj.Type())
	}
	sort.Strings(lines)
	return lines, order
}

// methods returns the exported concrete methods of a non-interface named
// type, promoted ones included, as a downstream user calls them on *T.
func methods(n *types.Named) []*types.Func {
	if types.IsInterface(n) {
		return nil
	}
	var fns []*types.Func
	ms := types.NewMethodSet(types.NewPointer(n))
	for i := 0; i < ms.Len(); i++ {
		if fn := ms.At(i).Obj().(*types.Func); fn.Exported() {
			fns = append(fns, fn)
		}
	}
	return fns
}

// components returns the types an unnamed type is built from: element,
// key, parameter and result types, exported field types and interface
// method signatures.
func components(typ types.Type) []types.Type {
	switch typ := typ.(type) {
	case *types.Pointer:
		return []types.Type{typ.Elem()}
	case *types.Slice:
		return []types.Type{typ.Elem()}
	case *types.Array:
		return []types.Type{typ.Elem()}
	case *types.Chan:
		return []types.Type{typ.Elem()}
	case *types.Map:
		return []types.Type{typ.Key(), typ.Elem()}
	case *types.Tuple:
		var ts []types.Type
		for i := 0; i < typ.Len(); i++ {
			ts = append(ts, typ.At(i).Type())
		}
		return ts
	case *types.Signature:
		return []types.Type{typ.Params(), typ.Results()}
	case *types.Struct:
		var ts []types.Type
		for i := 0; i < typ.NumFields(); i++ {
			if f := typ.Field(i); f.Exported() {
				ts = append(ts, f.Type())
			}
		}
		return ts
	case *types.Interface:
		var ts []types.Type
		for i := 0; i < typ.NumMethods(); i++ {
			ts = append(ts, typ.Method(i).Type())
		}
		return ts
	}
	return nil
}

// module is the type-checked module: every package's parsed files, one
// types.Info for all of them, and the interfaces of the module and the
// standard library.
type module struct {
	path       string
	pkgs       []goPackage
	fset       *token.FileSet
	info       *types.Info
	files      map[string][]*ast.File
	checked    map[string]*types.Package
	interfaces []*types.Interface
}

var (
	loadOnce   sync.Once
	loaded     *module
	loadFailed error
)

// loadModule type-checks the module once per test binary.
func loadModule(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() { loaded, loadFailed = typeCheckModule() })
	if loadFailed != nil {
		t.Fatal(loadFailed)
	}
	return loaded
}

func typeCheckModule() (*module, error) {
	pkgs, err := listPackages()
	if err != nil {
		return nil, err
	}
	m := &module{
		path: modulePath(pkgs),
		pkgs: pkgs,
		fset: token.NewFileSet(),
		info: &types.Info{
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Types:     map[ast.Expr]types.TypeAndValue{},
			Instances: map[*ast.Ident]types.Instance{},
		},
		files:   map[string][]*ast.File{},
		checked: map[string]*types.Package{},
	}
	exports := map[string]string{}
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	gc := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(f)
	})

	// Type-check the module's packages from source, in the dependency order
	// go list prints, so that one object stands for each declaration.
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := m.checked[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})
	// errors.Unwrap and errors.Is look for an Unwrap method through an
	// unnamed interface.
	unwrap := types.NewFunc(token.NoPos, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil,
		types.NewTuple(types.NewParam(token.NoPos, nil, "", types.Universe.Lookup("error").Type())), false))
	m.interfaces = []*types.Interface{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
		types.NewInterfaceType([]*types.Func{unwrap}, nil).Complete(),
	}
	for _, p := range pkgs {
		if p.Standard {
			std, err := gc.Import(p.ImportPath)
			if err != nil {
				return nil, fmt.Errorf("import %s: %v", p.ImportPath, err)
			}
			m.interfaces = appendInterfaces(m.interfaces, std)
			continue
		}
		if len(p.GoFiles) == 0 {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(m.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, m.fset, files, m.info)
		if err != nil {
			return nil, fmt.Errorf("type-check %s: %v", p.ImportPath, err)
		}
		m.checked[p.ImportPath] = tp
		m.files[p.ImportPath] = files
		m.interfaces = appendInterfaces(m.interfaces, tp)
	}
	for _, tv := range m.info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
			m.interfaces = append(m.interfaces, it)
		}
	}
	return m, nil
}

type goPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	Module     *struct{ Path string }
}

// listPackages returns the module's packages and every dependency, each
// after the packages it imports, with export data for the standard library.
func listPackages() ([]goPackage, error) {
	cmd := exec.Command("go", "list", "-export", "-deps", "-json=ImportPath,Dir,Export,Standard,GoFiles,Module", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	var pkgs []goPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p goPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func modulePath(pkgs []goPackage) string {
	for _, p := range pkgs {
		if p.Module != nil {
			return p.Module.Path
		}
	}
	return ""
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// recvName is the base type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return x.(*ast.Ident).Name
		}
	}
}

// appendInterfaces adds the package-level interfaces of p that have methods.
func appendInterfaces(dst []*types.Interface, p *types.Package) []*types.Interface {
	scope := p.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			dst = append(dst, it)
		}
	}
	return dst
}

// satisfiesInterface reports whether method fn belongs to some interface
// that a pointer to its receiver's type implements. A generic type
// is checked through its instantiations in the module.
func satisfiesInterface(fn *types.Func, interfaces []*types.Interface, instances []types.Type) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	candidates := []types.Type{typ}
	if n, ok := typ.(*types.Named); ok && n.TypeParams().Len() > 0 {
		candidates = nil
		for _, inst := range instances {
			if inst.(*types.Named).Origin() == n.Origin() {
				candidates = append(candidates, inst)
			}
		}
	}
	for _, it := range interfaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				has = true
				break
			}
		}
		if !has {
			continue
		}
		for _, c := range candidates {
			// *T's method set holds T's, so one check covers both receivers.
			if types.Implements(types.NewPointer(c), it) {
				return true
			}
		}
	}
	return false
}
