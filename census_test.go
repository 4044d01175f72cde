//go:build !race

package cool

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// censusGroups are the reasons an unlinked function may stay:
//   - yardstick: code that tests compare production code against;
//   - paper: a result that the paper or EXPERIMENTS.md cites;
//   - surface: documented API (the root facade, the wire client README
//     shows, what example_test.go shows);
//   - probe: an accessor through which a test observes code a binary runs.
var censusGroups = map[string]bool{"yardstick": true, "paper": true, "surface": true, "probe": true}

// TestReachabilityCensus builds every main package of the module, and
// the e2ebench module, with inlining off and reads their text symbols.
// Each non-test function that no binary links must be named in
// testdata/census.txt under one of censusGroups. The test fails on an
// unlinked function the file does not name and on a line that names no
// declared function; a listed function that a binary later links
// passes.
//
// The linker keeps every method an interface call could reach, so the
// census can miss a dead method but never reports a function a binary
// calls.
func TestReachabilityCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("census builds every binary; skipped in -short mode")
	}
	const module = "cool"

	// declared maps each non-test function to the binary that must link
	// it: "" for a library function (any binary), or the directory of a
	// main package, whose functions are named "<dir>:main.F" because every
	// binary's own package is "main".
	declared := map[string]string{}
	mains := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "e2ebench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg, owner := module, ""
		if dir != "." {
			pkg += "/" + dir
		}
		if f.Name.Name == "main" {
			pkg, owner = "main", dir
			mains[dir] = true
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			name := declName(pkg, fn)
			if owner != "" {
				name = owner + ":" + name
			}
			declared[name] = owner
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	bin := t.TempDir()
	// linked[binary] holds the normalised text symbols of one binary.
	linked := map[string]map[string]bool{}
	build := func(name, moduleDir, pkg string) {
		out := filepath.Join(bin, strings.ReplaceAll(name, "/", "_"))
		cmd := exec.Command("go", "-C", moduleDir, "build", "-gcflags=all=-l", "-o", out, pkg)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, msg)
		}
		syms, err := exec.Command("go", "tool", "nm", out).Output()
		if err != nil {
			t.Fatalf("nm %s: %v", name, err)
		}
		set := map[string]bool{}
		for _, line := range strings.Split(string(syms), "\n") {
			// address, type, name
			if f := strings.Fields(line); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				set[linkerName(strings.Join(f[2:], " "))] = true
			}
		}
		linked[name] = set
	}
	for dir := range mains {
		build(dir, ".", "./"+dir)
	}
	// e2ebench is its own module, built from its own directory.
	build("e2ebench", "e2ebench", ".")

	isLinked := func(name, owner string) bool {
		name = strings.TrimPrefix(name, owner+":")
		check := func(set map[string]bool) bool {
			if set[name] {
				return true
			}
			// A value method is also linked through its pointer wrapper.
			if i := strings.LastIndexByte(name, '.'); i > 0 && !strings.Contains(name, "(*") {
				recv := name[:i]
				if j := strings.LastIndexByte(recv, '.'); j > 0 {
					return set[recv[:j]+".(*"+recv[j+1:]+")"+name[i:]]
				}
			}
			return false
		}
		if owner != "" {
			return check(linked[owner])
		}
		for _, set := range linked {
			if check(set) {
				return true
			}
		}
		return false
	}

	listed := readCensus(t, filepath.Join("testdata", "census.txt"))
	var unlisted []string
	for name, owner := range declared {
		if !isLinked(name, owner) && listed[name] == "" {
			unlisted = append(unlisted, name)
		}
	}
	sort.Strings(unlisted)
	for _, name := range unlisted {
		t.Errorf("no binary links %s and testdata/census.txt does not keep it: delete it, or list it under a group", name)
	}
	var stale []string
	for name := range listed {
		if _, ok := declared[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		t.Errorf("testdata/census.txt names %s, which no non-test file declares", name)
	}
}

// readCensus parses the allowlist: one "<group> <symbol>" line per kept
// function; blank lines and lines starting with # are ignored.
func readCensus(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch {
		case len(f) != 2:
			t.Errorf("%s:%d: want \"<group> <symbol>\", got %q", path, i+1, line)
		case !censusGroups[f[0]]:
			t.Errorf("%s:%d: unknown group %q", path, i+1, f[0])
		case listed[f[1]] != "":
			t.Errorf("%s:%d: %s listed twice", path, i+1, f[1])
		default:
			listed[f[1]] = f[0]
		}
	}
	return listed
}

// declName names a function declaration as the linker does:
// pkg.F, pkg.(*T).M for a pointer method and pkg.T.M for a value
// method, with type parameters dropped.
func declName(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkg + "." + fn.Name.Name
	}
	typ := fn.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if star {
		return pkg + ".(*" + recv + ")." + fn.Name.Name
	}
	return pkg + "." + recv + "." + fn.Name.Name
}

// closureSuffix matches what the compiler appends to an enclosing
// function's name for closures, go statements, defers and method values.
var closureSuffix = regexp.MustCompile(`(\.(func|gowrap|deferwrap)?\d+|-fm)+$`)

// linkerName strips a text symbol down to the declaration it came from:
// instantiation brackets go, and closures count as their enclosing
// function.
func linkerName(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return closureSuffix.ReplaceAllString(b.String(), "")
}
