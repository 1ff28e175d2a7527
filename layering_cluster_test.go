package dynamicrumor_test

// The cluster's view of the service: internal/cluster plugs into the
// service as a Backend, so it may name only the Backend seam and the few
// types that cross it. An import graph cannot see which names a package
// uses, so this test parses every service.X selector in the cluster's
// non-test files and allows a fixed set.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// clusterServiceNames are the service identifiers internal/cluster may use.
var clusterServiceNames = []string{
	"Backend", "BackendRun", "BackendResult", "ClusterStats", "NewSummaryStream", "UnavailableError",
}

// parseClusterFiles parses the non-test Go files of internal/cluster.
func parseClusterFiles(fset *token.FileSet) ([]*ast.File, error) {
	paths, err := filepath.Glob(filepath.Join("internal", "cluster", "*.go"))
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// serviceSelectors returns, per identifier X, the positions of every
// service.X selector in files, under whatever name each file imports the
// service package.
func serviceSelectors(fset *token.FileSet, files []*ast.File) map[string][]string {
	uses := make(map[string][]string)
	for _, f := range files {
		local := ""
		for _, spec := range f.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil && path == modulePath+"/internal/service" {
				local = "service"
				if spec.Name != nil {
					local = spec.Name.Name
				}
			}
		}
		if local == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
					uses[sel.Sel.Name] = append(uses[sel.Sel.Name], fset.Position(sel.Pos()).String())
				}
			}
			return true
		})
	}
	return uses
}

// serviceSelectorViolations returns one line per service identifier the
// cluster uses outside clusterServiceNames.
func serviceSelectorViolations(uses map[string][]string) []string {
	var out []string
	for name, at := range uses {
		if !slices.Contains(clusterServiceNames, name) {
			out = append(out, fmt.Sprintf("internal/cluster uses service.%s at %s: the cluster reaches the service only through the Backend seam", name, strings.Join(at, ", ")))
		}
	}
	slices.Sort(out)
	return out
}

func TestClusterUsesOnlyServiceBackend(t *testing.T) {
	fset := token.NewFileSet()
	files, err := parseClusterFiles(fset)
	if err != nil {
		t.Fatal(err)
	}
	uses := serviceSelectors(fset, files)
	// A moved package or a changed import path must not turn the rule into
	// a silent no-op.
	if len(uses["BackendRun"]) == 0 {
		t.Fatalf("found no service.BackendRun selector in %d internal/cluster files", len(files))
	}
	for _, v := range serviceSelectorViolations(uses) {
		t.Error(v)
	}
}

// TestClusterServiceRuleCatchesViolations adds one file that names a
// service identifier outside the allowed set, under an aliased import, and
// checks that exactly that selector is reported.
func TestClusterServiceRuleCatchesViolations(t *testing.T) {
	fset := token.NewFileSet()
	files, err := parseClusterFiles(fset)
	if err != nil {
		t.Fatal(err)
	}
	mutant, err := parser.ParseFile(fset, "mutant.go", `package cluster

import svc "dynamicrumor/internal/service"

var _ = svc.LocalBackend{}
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := serviceSelectorViolations(serviceSelectors(fset, append(files, mutant)))
	if len(got) != 1 || !strings.HasPrefix(got[0], "internal/cluster uses service.LocalBackend at mutant.go:5:") {
		t.Errorf("violations %q, want exactly service.LocalBackend in mutant.go reported", got)
	}
}
