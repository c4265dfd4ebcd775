package verifiabledp

// TestNoTestOnlyCode keeps product code that only tests reach out of
// internal/. It type-checks the module and bench/ with the standard
// library's go/parser and go/types, walks what the programs can reach
// and fails on any function, method or type under internal/ that
// nothing reaches and that keptUnreached does not name, and on any
// kept entry that no longer exists or is now reached.
//
// The roots are:
//   - main, init and the package-level variables of every main package
//     under cmd/, examples/ and bench/;
//   - the root package's exported declarations;
//   - init and the package-level variables of every package those
//     roots import, directly or not.
//
// A reached declaration reaches everything its source names. A method
// is reached when it is named, or when its type is reached and
// implements an interface whose method of that name is reached. Every
// method of a standard-library interface counts as reached, since the
// standard library may call it. Constants are not reported.
//
// go test -run TestNoTestOnlyCode -v . prints the kept list.

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

const (
	keepStoreFault = "store fault harness: the crash matrices of vdp and cluster drive it"
	keepConnFault  = "frame-fault harness: the chaos and restart tests of cluster and transport drive it"
	keepSnapshot   = "BoardLog.Snapshot, which bench/'s tracedLog forwards; it goes with ROADMAP items 5 and 6(a)"
)

// keptUnreached names the declarations under internal/ that no program
// reaches but that stay in product code, each with its reason. A key is
// the package path below internal/, then the name; a method is named
// through its receiver's type.
var keptUnreached = map[string]string{
	"fp256.SqrtCalls":  "test hook: vdp's tests count the square roots a reader takes",
	"store.WithNoSync": "test hook: the tests of vdp, cluster and the root package open file logs without fsync",

	"store.FileLog.Snapshot":       keepSnapshot,
	"store.ReplicatedLog.Snapshot": keepSnapshot,

	"store.FaultFromSeed":         keepStoreFault,
	"store.FaultKind":             keepStoreFault,
	"store.FaultKind.String":      keepStoreFault,
	"store.FaultLog":              keepStoreFault,
	"store.FaultLog.Append":       keepStoreFault,
	"store.FaultLog.AppendNoSync": keepStoreFault,
	"store.FaultLog.Sync":         keepStoreFault,
	"store.FaultLog.Tripped":      keepStoreFault,
	"store.FaultLog.append":       keepStoreFault,
	"store.FileLog.writeRaw":      keepStoreFault,
	"store.NewFaultLog":           keepStoreFault,

	"transport.ConnFault":         keepConnFault,
	"transport.ConnFault.String":  keepConnFault,
	"transport.ConnFaultFromSeed": keepConnFault,
	"transport.FaultPlan":         keepConnFault,
	"transport.FaultPlan.Dialer":  keepConnFault,
	"transport.FaultPlan.Tripped": keepConnFault,
	"transport.FaultPlan.Wrap":    keepConnFault,
	"transport.FaultPlan.take":    keepConnFault,
	"transport.faultConn":         keepConnFault,
	"transport.faultConn.Write":   keepConnFault,
	"transport.faultConn.emit":    keepConnFault,
	"transport.frameLen":          keepConnFault,
}

func TestNoTestOnlyCode(t *testing.T) {
	unreached, err := scanUnreached(".")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]unreachedDecl{}
	for _, d := range unreached {
		byName[d.name] = d
	}
	kept, lines := 0, 0
	for _, d := range unreached {
		if reason, ok := keptUnreached[d.name]; ok {
			kept++
			lines += d.lines
			t.Logf("kept %-50s %4d  %s", d.name, d.lines, reason)
			continue
		}
		t.Errorf("%s (%s, %d counted lines) is reached by no program: delete it, move it into a _test.go file, or keep it with a reason in keptUnreached", d.name, d.pos, d.lines)
	}
	t.Logf("kept: %d declarations, %d counted lines", kept, lines)
	var stale []string
	for name := range keptUnreached {
		if _, ok := byName[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("keptUnreached names %s, which no longer exists or is now reached: drop it from the list", name)
	}
}

// unreachedDecl is one function, method or type under internal/ that no
// root reaches.
type unreachedDecl struct {
	name  string // package path below internal/, then the name
	pos   string // file:line
	lines int    // counted lines: neither blank nor comment-only
}

// scanPkg is one type-checked non-test package of the module or bench/.
type scanPkg struct {
	path  string
	name  string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// scanLoader type-checks module packages from source on demand and
// takes the standard library from the "source" importer.
type scanLoader struct {
	fset    *token.FileSet
	root    string // module root directory
	std     types.Importer
	pkgs    map[string]*scanPkg
	loading map[string]bool
}

const (
	scanModule = "repro"
	scanBench  = "repro/bench"
)

func (l *scanLoader) dirOf(path string) (string, bool) {
	switch {
	case path == scanModule:
		return l.root, true
	case path == scanBench || strings.HasPrefix(path, scanBench+"/"):
		return filepath.Join(l.root, "bench", strings.TrimPrefix(path, scanBench)), true
	case strings.HasPrefix(path, scanModule+"/"):
		return filepath.Join(l.root, strings.TrimPrefix(path, scanModule+"/")), true
	}
	return "", false
}

func (l *scanLoader) Import(path string) (*types.Package, error) {
	if _, ok := l.dirOf(path); !ok {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *scanLoader) load(path string) (*scanPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	l.loading[path] = true
	dir, _ := l.dirOf(path)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	p := &scanPkg{path: path, name: bp.Name}
	for _, f := range bp.GoFiles {
		af, err := parser.ParseFile(l.fset, filepath.Join(dir, f), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, af)
	}
	p.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	p.types, err = conf.Check(path, l.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	l.pkgs[path] = p
	return p, nil
}

// scanUnreached loads every non-test package under root (bench/ as the
// module repro/bench), walks what the roots reach and returns the
// unreached functions, methods and types under internal/, by name.
func scanUnreached(root string) ([]unreachedDecl, error) {
	l := &scanLoader{pkgs: map[string]*scanPkg{}, loading: map[string]bool{}}
	l.fset = token.NewFileSet()
	l.std = importer.ForCompiler(l.fset, "source", nil)
	var err error
	if l.root, err = filepath.Abs(root); err != nil {
		return nil, err
	}
	var paths []string
	err = filepath.WalkDir(l.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		base := d.Name()
		if p != l.root && (base == "testdata" || strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		if _, err := build.ImportDir(p, 0); err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		rel, err := filepath.Rel(l.root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		switch {
		case rel == ".":
			paths = append(paths, scanModule)
		case rel == "bench" || strings.HasPrefix(rel, "bench/"):
			paths = append(paths, scanBench+strings.TrimPrefix(rel, "bench"))
		default:
			paths = append(paths, scanModule+"/"+rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		if _, err := l.load(path); err != nil {
			return nil, err
		}
	}
	r := newReach(l)
	if err := r.markRoots(); err != nil {
		return nil, err
	}
	for {
		r.drain()
		if !r.dispatch() {
			break
		}
	}
	return r.report()
}

// reach is the reachability walk over the loaded packages' declarations.
type reach struct {
	l     *scanLoader
	decls map[types.Object][]ast.Node // declaration → its source
	owner map[types.Object]*scanPkg
	seen  map[types.Object]bool
	work  []types.Object

	named      []*types.TypeName  // reached named types of the module
	ifaceMeths []*types.Func      // reached methods of module interfaces
	stdIfaces  []*types.Interface // see stdInterfaces
}

func newReach(l *scanLoader) *reach {
	r := &reach{l: l, decls: map[types.Object][]ast.Node{}, owner: map[types.Object]*scanPkg{}, seen: map[types.Object]bool{}}
	for _, p := range l.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					r.add(p, p.info.Defs[d.Name], d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							r.add(p, p.info.Defs[s.Name], s)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								r.add(p, p.info.Defs[n], s)
							}
						}
					}
				}
			}
		}
	}
	return r
}

func (r *reach) add(p *scanPkg, obj types.Object, n ast.Node) {
	if obj == nil {
		return
	}
	r.decls[obj] = append(r.decls[obj], n)
	r.owner[obj] = p
}

func (r *reach) mark(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	if obj == nil || r.seen[obj] {
		return
	}
	r.seen[obj] = true
	r.work = append(r.work, obj)
}

// drain walks the work list: each reached declaration reaches what its
// source uses.
func (r *reach) drain() {
	for len(r.work) > 0 {
		obj := r.work[len(r.work)-1]
		r.work = r.work[:len(r.work)-1]
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && fn.Pkg() != nil && types.IsInterface(recv.Type()) {
				if _, ours := r.l.dirOf(fn.Pkg().Path()); ours {
					r.ifaceMeths = append(r.ifaceMeths, fn)
				}
			}
		}
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() && r.owner[tn] != nil {
			r.named = append(r.named, tn)
		}
		p := r.owner[obj]
		for _, n := range r.decls[obj] {
			ast.Inspect(n, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if use := p.info.Uses[id]; use != nil {
						r.mark(use)
					}
				}
				return true
			})
		}
	}
}

// dispatch marks the methods that reached interface methods can call
// and reports whether it marked any.
func (r *reach) dispatch() bool {
	before := len(r.seen)
	for _, tn := range r.named {
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		for _, typ := range []types.Type{named, types.NewPointer(named)} {
			for _, m := range r.ifaceMeths {
				iface := m.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				if types.Implements(typ, iface) {
					r.markMethod(typ, m.Name())
				}
			}
			for _, iface := range r.stdIfaces {
				if types.Implements(typ, iface) {
					for i := 0; i < iface.NumMethods(); i++ {
						r.markMethod(typ, iface.Method(i).Name())
					}
				}
			}
		}
	}
	return len(r.seen) > before
}

func (r *reach) markMethod(typ types.Type, name string) {
	if obj, _, _ := types.LookupFieldOrMethod(typ, true, nil, name); obj != nil {
		r.mark(obj)
	}
}

// stdCallbacks declares the interfaces through which the errors
// package calls methods without exporting the interface.
const stdCallbacks = `package callbacks
type unwrap interface{ Unwrap() error }
type unwrapAll interface{ Unwrap() []error }
type is interface{ Is(error) bool }
type as interface{ As(any) bool }
`

// stdInterfaces lists every interface with methods declared at package
// level in the standard-library packages the module imports, directly
// or not, plus error and stdCallbacks.
func (r *reach) stdInterfaces() ([]*types.Interface, error) {
	f, err := parser.ParseFile(r.l.fset, "callbacks.go", stdCallbacks, 0)
	if err != nil {
		return nil, err
	}
	callbacks, err := new(types.Config).Check("callbacks", r.l.fset, []*ast.File{f}, nil)
	if err != nil {
		return nil, err
	}
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, name := range callbacks.Scope().Names() {
		out = append(out, callbacks.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, ours := r.l.dirOf(p.Path()); !ours {
			scope := p.Scope()
			for _, name := range scope.Names() {
				tn, ok := scope.Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				named, ok := tn.Type().(*types.Named)
				if !ok || named.TypeParams().Len() > 0 {
					continue
				}
				if iface, ok := named.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
					out = append(out, iface)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range r.l.pkgs {
		visit(p.types)
	}
	return out, nil
}

// markRoots marks the roots: the main packages' main, the root package's
// exported declarations, and init and the package-level variables of
// every package the programs link.
func (r *reach) markRoots() error {
	var err error
	if r.stdIfaces, err = r.stdInterfaces(); err != nil {
		return err
	}
	var rootPkgs []*scanPkg
	for _, p := range r.l.pkgs {
		if p.name == "main" || p.path == scanModule {
			rootPkgs = append(rootPkgs, p)
		}
	}
	linked := map[*types.Package]bool{}
	var link func(tp *types.Package)
	link = func(tp *types.Package) {
		if linked[tp] {
			return
		}
		linked[tp] = true
		for _, imp := range tp.Imports() {
			link(imp)
		}
	}
	for _, p := range rootPkgs {
		link(p.types)
		if p.path == scanModule {
			for obj := range r.decls {
				if r.owner[obj] == p && obj.Exported() {
					if fn, ok := obj.(*types.Func); ok && !rootRecvExported(fn) {
						continue
					}
					r.mark(obj)
				}
			}
		}
	}
	for obj, p := range r.owner {
		if !linked[p.types] {
			continue
		}
		switch o := obj.(type) {
		case *types.Var:
			r.mark(o)
		case *types.Func:
			if o.Name() == "init" || (p.name == "main" && o.Name() == "main") {
				r.mark(o)
			}
		}
	}
	return nil
}

// report lists the functions, methods and types under internal/ that the
// walk did not reach.
func (r *reach) report() ([]unreachedDecl, error) {
	var out []unreachedDecl
	for obj, p := range r.owner {
		if r.seen[obj] || !strings.HasPrefix(p.path, scanModule+"/internal/") {
			continue
		}
		switch obj.(type) {
		case *types.Func, *types.TypeName:
		default:
			continue
		}
		name := strings.TrimPrefix(p.path, scanModule+"/internal/") + "."
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				rt := recv.Type()
				if ptr, ok := rt.(*types.Pointer); ok {
					rt = ptr.Elem()
				}
				name += rt.(*types.Named).Obj().Name() + "."
			}
		}
		name += obj.Name()
		pos := r.l.fset.Position(obj.Pos())
		lines := 0
		for _, n := range r.decls[obj] {
			c, err := countedLines(r.l.fset, n)
			if err != nil {
				return nil, err
			}
			lines += c
		}
		rel, _ := filepath.Rel(r.l.root, pos.Filename)
		out = append(out, unreachedDecl{name: name, pos: fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line), lines: lines})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// rootRecvExported reports whether fn is a function or a method of an
// exported type.
func rootRecvExported(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return true
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Exported()
}

var blankOrComment = regexp.MustCompile(`^\s*(//.*)?$`)

// countedLines counts the lines of n's source that are neither blank nor
// comment-only, as grep -cvE '^\s*(//.*)?$' counts them.
func countedLines(fset *token.FileSet, n ast.Node) (int, error) {
	start, end := fset.Position(n.Pos()), fset.Position(n.End())
	src, err := os.ReadFile(start.Filename)
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(src))
	count := 0
	for line := 1; sc.Scan(); line++ {
		if line >= start.Line && line <= end.Line && !blankOrComment.MatchString(sc.Text()) {
			count++
		}
	}
	return count, sc.Err()
}
