package dynamicrumor_test

// The layering test pins the module's import graph: the leaf packages stay
// leaves, the runner stays a pure scheduler over RNG streams, the service
// plane (service, store, obs) is reached only from the service and cluster
// packages, and only the rumord binary links the cluster. It reads import
// declarations with go/parser, so it needs no toolchain beyond the standard
// library and sees exactly what the compiler would link.

import (
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "dynamicrumor"

// layeringLeaves import nothing from this module.
var layeringLeaves = []string{
	"internal/xrand", "internal/stats", "internal/obs", "internal/graph",
	"internal/store", "internal/retry", "internal/faults", "internal/buildinfo",
}

// moduleImports parses the import declarations of every non-test Go file
// under root and returns, per package directory (relative, slash-separated),
// the set of this module's packages it imports. The benchmark module under
// bench/ and testdata directories are not part of the module's build.
func moduleImports(root string) (map[string][]string, error) {
	graph := make(map[string][]string)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		if _, ok := graph[pkg]; !ok {
			graph[pkg] = nil
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			dep, ok := strings.CutPrefix(imp, modulePath+"/")
			if ok && !slices.Contains(graph[pkg], dep) {
				graph[pkg] = append(graph[pkg], dep)
			}
		}
		return nil
	})
	return graph, err
}

// layeringViolations returns one line per import that breaks a layering
// rule, plus one per package a rule names that the graph lacks (a renamed
// package must not turn its rule into a silent no-op).
func layeringViolations(graph map[string][]string) []string {
	var out []string
	for _, pkg := range append(slices.Clone(layeringLeaves), "internal/runner", "internal/service", "internal/cluster", "cmd/rumord") {
		if _, ok := graph[pkg]; !ok {
			out = append(out, fmt.Sprintf("package %s named by a layering rule does not exist", pkg))
		}
	}
	for pkg, deps := range graph {
		for _, dep := range deps {
			switch {
			case slices.Contains(layeringLeaves, pkg):
				out = append(out, fmt.Sprintf("%s imports %s: leaf packages import nothing from this module", pkg, dep))
			case pkg == "internal/runner" && dep != "internal/xrand":
				out = append(out, fmt.Sprintf("%s imports %s: the runner imports only internal/xrand", pkg, dep))
			case strings.HasPrefix(pkg, "internal/") && pkg != "internal/service" && pkg != "internal/cluster" &&
				(dep == "internal/service" || dep == "internal/store" || dep == "internal/obs"):
				out = append(out, fmt.Sprintf("%s imports %s: only internal/service and internal/cluster reach the service plane", pkg, dep))
			case dep == "internal/cluster" && pkg != "cmd/rumord":
				out = append(out, fmt.Sprintf("%s imports %s: only cmd/rumord imports the cluster", pkg, dep))
			}
		}
	}
	slices.Sort(out)
	return out
}

func TestImportLayering(t *testing.T) {
	graph, err := moduleImports(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range layeringViolations(graph) {
		t.Error(v)
	}
}

// TestImportLayeringCatchesViolations adds one forbidden import per rule to
// the real graph and checks that exactly that import is reported.
func TestImportLayeringCatchesViolations(t *testing.T) {
	graph, err := moduleImports(".")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ pkg, dep string }{
		{"internal/graph", "internal/xrand"},
		{"internal/obs", "internal/stats"},
		{"internal/runner", "internal/stats"},
		{"internal/engine", "internal/service"},
		{"internal/experiment", "internal/obs"},
		{"internal/sim", "internal/store"},
		{"cmd/rumorsim", "internal/cluster"},
		{"internal/service", "internal/cluster"},
	}
	for _, c := range cases {
		mutated := make(map[string][]string, len(graph))
		for pkg, deps := range graph {
			mutated[pkg] = slices.Clone(deps)
		}
		mutated[c.pkg] = append(mutated[c.pkg], c.dep)
		got := layeringViolations(mutated)
		if len(got) != 1 || !strings.HasPrefix(got[0], c.pkg+" imports "+c.dep+":") {
			t.Errorf("adding %s -> %s: violations %q, want exactly that import reported", c.pkg, c.dep, got)
		}
	}
	delete(graph, "internal/runner")
	if got := layeringViolations(graph); len(got) != 1 || !strings.Contains(got[0], "internal/runner") {
		t.Errorf("missing internal/runner: violations %q, want the missing package reported", got)
	}
}
