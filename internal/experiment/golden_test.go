package experiment

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden E-tables under testdata/")

// TestQuickTablesMatchGolden pins every quick-mode table, at CI's seed 7 and
// the paper's seed 20200424, to the CSV committed under testdata/. A change
// that alters any reproduced number fails here; a deliberate one regenerates
// the files with
//
//	go test ./internal/experiment -run TablesMatchGolden -update
//
// and shows the table diff in review.
func TestQuickTablesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	for _, seed := range []uint64{7, 20200424} {
		cfg := QuickConfig()
		cfg.Seed = seed
		matchGolden(t, cfg, fmt.Sprintf("quick-seed%d", seed))
	}
}

// TestFullTablesMatchGolden pins every full-mode table at the default seed
// 20200424, the run cmd/experiments makes without flags, to the CSV under
// testdata/full-seed20200424.
func TestFullTablesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment")
	}
	cfg := DefaultConfig()
	matchGolden(t, cfg, fmt.Sprintf("full-seed%d", cfg.Seed))
}

// matchGolden runs every experiment under cfg and compares each table's CSV
// with testdata/<dir>/<id>.csv, or rewrites the files under -update.
func matchGolden(t *testing.T, cfg Config, dir string) {
	t.Helper()
	for _, id := range IDs() {
		tbl, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s %s: %v", dir, id, err)
		}
		path := filepath.Join("testdata", dir, id+".csv")
		got := tbl.CSV()
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to create it)", err)
		}
		if got != string(want) {
			t.Errorf("%s %s: table differs from %s\n--- got ---\n%s--- want ---\n%s", dir, id, path, got, want)
		}
	}
}
