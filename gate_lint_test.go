package repro_test

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
