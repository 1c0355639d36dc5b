package repro_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// gateFiles are the files whose `go test -run '…'` lines define the
// equivalence, soak and failover gates.
var gateFiles = []string{"Makefile", ".github/workflows/ci.yml"}

// runFlag captures a quoted -run or -fuzz pattern.
var runFlag = regexp.MustCompile(`-(?:run|fuzz)[ =](?:'([^']*)'|"([^"]*)")`)

// TestGateRunPatternsMatchTests fails when a gate's -run (or -fuzz)
// alternative matches no Test, Fuzz or Benchmark function in the
// packages named on its line, so a renamed or moved test cannot
// silently drop out of a gate — go test -fuzz with no matching target
// only warns.
func TestGateRunPatternsMatchTests(t *testing.T) {
	names := map[string][]string{} // package dir → top-level test function names
	for _, file := range gateFiles {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for lineNo := 1; sc.Scan(); lineNo++ {
			line := sc.Text()
			flags := runFlag.FindAllStringSubmatch(line, -1)
			if flags == nil {
				continue
			}
			pkgs := linePackages(line)
			if len(pkgs) == 0 {
				t.Errorf("%s:%d: -run line names no package", file, lineNo)
				continue
			}
			var funcs []string
			for _, dir := range pkgs {
				if _, ok := names[dir]; !ok {
					names[dir] = testFuncs(t, dir)
				}
				funcs = append(funcs, names[dir]...)
			}
			for _, m := range flags {
				pattern := strings.ReplaceAll(m[1]+m[2], "$$", "$")
				// go test matches the part before the first '/' against
				// top-level test names.
				top, _, _ := strings.Cut(pattern, "/")
				for _, alt := range strings.Split(top, "|") {
					re, err := regexp.Compile(alt)
					if err != nil {
						t.Errorf("%s:%d: alternative %q: %v", file, lineNo, alt, err)
						continue
					}
					if !matchesAny(re, funcs) {
						t.Errorf("%s:%d: alternative %q matches no Test/Fuzz/Benchmark function in %v", file, lineNo, alt, pkgs)
					}
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}

// linePackages returns the package directories named on a go test line.
func linePackages(line string) []string {
	var dirs []string
	for _, tok := range strings.Fields(line) {
		if tok == "." || strings.HasPrefix(tok, "./") {
			dirs = append(dirs, filepath.Clean(tok))
		}
	}
	return dirs
}

// testFuncs lists the top-level Test, Fuzz and Benchmark functions
// declared in dir's _test.go files.
func testFuncs(t *testing.T, dir string) []string {
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("gate names missing package %s", dir)
	}
	var out []string
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Fuzz", "Benchmark"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					out = append(out, fn.Name.Name)
				}
			}
		}
	}
	return out
}

func matchesAny(re *regexp.Regexp, funcs []string) bool {
	for _, name := range funcs {
		if re.MatchString(name) {
			return true
		}
	}
	return false
}

// callerAllowlist names the package-level functions and methods under
// internal/ that no command, example, daemon, figure or perfbench
// workload reaches and that are kept anyway, one reason each. Keys are
// "import/path.Func" or "import/path.Type.Method".
var callerAllowlist = map[string]string{
	"repro/internal/space.Space.SampleLHS":                "BenchmarkAblationLHSPool draws its Latin-hypercube training sets with it",
	"repro/internal/space.Space.Enumerate":                "the kripke, hypre, core and pool tests enumerate whole spaces with it",
	"repro/internal/space.Space.ByName":                   "the kripke and hypre tests look parameters up by name with it",
	"repro/internal/forest.Forest.OOBRMSE":                "the out-of-bag error waits on its comparison with active surrogate estimators (ROADMAP item 5)",
	"repro/internal/forest.Forest.NumTrees":               "the root benchmarks and forest tests check ensemble sizes with it",
	"repro/internal/forest.Forest.Save":                   "the writer half of Load's format; tests in several packages round-trip forests through it",
	"repro/internal/tree.Regressor.Depth":                 "the tree and forest tests check MaxDepth with it",
	"repro/internal/pool.NewTopK":                         "FuzzTopK drives the bounded top-k reducer through it",
	"repro/internal/pool.ScanCache.Stats":                 "the scan-cache counters wait on the metrics registry that exports them (ROADMAP item 3)",
	"repro/internal/chaos.Injector.Stats":                 "the injector's fault counters wait on the metrics registry that exports them (ROADMAP item 3)",
	"repro/internal/fleet.Client.Recovered":               "the submitter's recovery counters wait on the metrics registry that exports them (ROADMAP item 3)",
	"repro/internal/calibration.Report.Miscalibration":    "calibration waits on its scorecard verdict (ROADMAP items 5 and 9)",
	"repro/internal/gp.GP.PredictObservedWithUncertainty": "the GP surrogate waits on its scorecard verdict (ROADMAP item 9)",
	"repro/internal/gp.GP.LogMarginalLikelihood":          "the GP surrogate waits on its scorecard verdict (ROADMAP item 9)",
	"repro/internal/gp.GP.Hyperparameters":                "the GP surrogate waits on its scorecard verdict (ROADMAP item 9)",
	"repro/internal/stats.StdDev":                         "statistics kept for the paired-bootstrap scorecard (ROADMAP item 1)",
	"repro/internal/stats.Median":                         "statistics kept for the paired-bootstrap scorecard (ROADMAP item 1)",
	"repro/internal/stats.SampleVariance":                 "statistics kept for the paired-bootstrap scorecard (ROADMAP item 1)",
	"repro/internal/stats.Min":                            "statistics kept for the paired-bootstrap scorecard (ROADMAP item 1)",
	"repro/internal/stats.Max":                            "statistics kept for the paired-bootstrap scorecard (ROADMAP item 1)",
	"repro/internal/stats.Spearman":                       "statistics kept for the paired-bootstrap scorecard (ROADMAP item 1)",
	"repro/internal/stats.Welford.Add":                    "statistics kept for the paired-bootstrap scorecard (ROADMAP item 1)",
	"repro/internal/stats.Welford.N":                      "statistics kept for the paired-bootstrap scorecard (ROADMAP item 1)",
	"repro/internal/stats.Welford.Mean":                   "statistics kept for the paired-bootstrap scorecard (ROADMAP item 1)",
	"repro/internal/stats.Welford.StdDev":                 "statistics kept for the paired-bootstrap scorecard (ROADMAP item 1)",
	"repro/internal/stats.Welford.Merge":                  "statistics kept for the paired-bootstrap scorecard (ROADMAP item 1)",
	"repro/internal/stats.Histogram":                      "statistics kept for the paired-bootstrap scorecard (ROADMAP item 1)",
	"repro/internal/stats.GeoMean":                        "statistics kept for the paired-bootstrap scorecard (ROADMAP item 1)",
}

// goListPackage is the part of `go list -json` the caller lint reads.
type goListPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// TestInternalFuncsHaveCallers fails on any package-level function or
// method under internal/ that nothing outside its own declaration uses,
// across every non-test package of the module (commands, examples,
// daemons, figures) and of the perfbench module. Production code whose
// only callers are its own tests belongs in the tests. A method that
// implements a method of a module or standard-library interface, for a
// type of the module that satisfies that interface, counts as used,
// since it may be reached only through the interface (a promoted method
// counts for the embedded type's declaration); anything else that is
// kept without a caller needs a callerAllowlist entry.
func TestInternalFuncsHaveCallers(t *testing.T) {
	start := time.Now()
	var pkgs []goListPackage
	seen := map[string]bool{}
	for _, dir := range []string{".", "perfbench"} {
		for _, p := range goListDeps(t, dir) {
			if !p.Standard && !seen[p.ImportPath] {
				seen[p.ImportPath] = true
				pkgs = append(pkgs, p)
			}
		}
	}

	// go list -deps prints dependencies before their dependents, so
	// every module import is checked by the time a package needs it;
	// standard-library imports are type-checked from source.
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	type decl struct {
		key      string
		pos      token.Position
		from, to token.Pos // the declaration's extent
	}
	decls := map[*types.Func]decl{}
	used := map[*types.Func]bool{}
	// Every interface the scan sees, starting with the universe's error,
	// and every named type the module declares.
	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	var named []*types.Named
	var infos []*types.Info
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = tp
		infos = append(infos, info)
		for _, tv := range info.Types {
			addInterface(ifaces, tv.Type)
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					named = append(named, n)
				}
			}
		}
		if !strings.HasPrefix(p.ImportPath, "repro/internal/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				decls[fn] = decl{funcKey(fn), fset.Position(fd.Name.Pos()), fd.Pos(), fd.End()}
			}
		}
	}
	for _, info := range infos {
		for id, obj := range info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if d, ok := decls[fn]; ok && (id.Pos() < d.from || id.Pos() >= d.to) {
				used[fn] = true
			}
		}
	}
	// Every standard-library interface the module reaches, directly or
	// through another standard package.
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				addInterface(ifaces, tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	// A method is reachable through an interface when its type (or a
	// pointer to it, whose method set includes the type's) implements
	// the interface; the method set resolves a promoted method to the
	// embedded type's declaration.
	for _, n := range named {
		if n.TypeParams().Len() > 0 || types.IsInterface(n) {
			continue
		}
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		for it := range ifaces {
			if it.NumMethods() == 0 || mset.Lookup(it.Method(0).Pkg(), it.Method(0).Name()) == nil || !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if fn, ok := mset.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func); ok {
					used[fn.Origin()] = true
				}
			}
		}
	}

	var unused []string
	allowed := map[string]bool{}
	for fn, d := range decls {
		if used[fn] {
			continue
		}
		if _, ok := callerAllowlist[d.key]; ok {
			allowed[d.key] = true
			continue
		}
		unused = append(unused, d.pos.String()+": "+d.key+" has no caller outside its own declaration")
	}
	sort.Strings(unused)
	for _, msg := range unused {
		t.Error(msg)
	}
	var stale []string
	for key := range callerAllowlist {
		if !allowed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		t.Errorf("callerAllowlist entry %s names no uncalled function: drop it", key)
	}
	t.Logf("checked %d functions and methods under internal/ across %d packages in %v; %d allowlisted",
		len(decls), len(pkgs), time.Since(start).Round(time.Millisecond), len(allowed))
}

// goListDeps returns `go list -deps -json ./...` run in dir.
func goListDeps(t *testing.T, dir string) []goListPackage {
	cmd := exec.Command("go", "list", "-deps", "-json", "./...")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []goListPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p goListPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// funcKey names fn as "import/path.Func" or "import/path.Type.Method".
func funcKey(fn *types.Func) string {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	rt := recv.Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	return fn.Pkg().Path() + "." + rt.(*types.Named).Obj().Name() + "." + fn.Name()
}

// addInterface records t when it is an interface.
func addInterface(ifaces map[*types.Interface]bool, t types.Type) {
	if t == nil {
		return
	}
	if it, ok := t.Underlying().(*types.Interface); ok {
		ifaces[it] = true
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
