package cli

import (
	"context"
	"flag"
	"testing"

	arena "github.com/sjtu-epcc/arena"
)

// buildLabel opens a one-type, MaxN 2 session over the given workloads
// (backed by dir when non-empty), builds its database through BuildDB
// and returns the source label.
func buildLabel(t *testing.T, dir string, ws ...arena.Workload) string {
	t.Helper()
	c := &Common{Seed: 42, Store: dir}
	sess := NewSession(c, arena.WithSeed(c.Seed), arena.WithGPUTypes("A40"), arena.WithMaxN(2), arena.WithWorkloads(ws...))
	defer func() {
		if err := sess.Close(); err != nil {
			t.Fatal(err)
		}
	}()
	db, label := BuildDB(context.Background(), sess)
	if db == nil || len(db.Keys()) == 0 {
		t.Fatalf("BuildDB returned an empty database (label %q)", label)
	}
	return label
}

func TestBuildDBLabelsSource(t *testing.T) {
	wres := arena.Workload{Model: "WRes-1B", GlobalBatch: 256}
	gpt := arena.Workload{Model: "GPT-1.3B", GlobalBatch: 128}

	if got := buildLabel(t, "", wres); got != "searched" {
		t.Errorf("no store: label %q, want searched", got)
	}
	dir := t.TempDir()
	if got := buildLabel(t, dir, wres); got != "searched" {
		t.Errorf("cold store: label %q, want searched", got)
	}
	if got := buildLabel(t, dir, wres); got != "store" {
		t.Errorf("warm store: label %q, want store", got)
	}
	got := buildLabel(t, dir, wres, gpt)
	if want := "store, partial: 1 columns reused, 1 built"; got != want {
		t.Errorf("added workload: label %q, want %q", got, want)
	}
}

// TestPersistentFollowsStore: Persistent reports exactly whether -store
// was given.
func TestPersistentFollowsStore(t *testing.T) {
	c := CommonFlags()
	if c.Persistent() {
		t.Error("Persistent without -store")
	}
	if err := flag.CommandLine.Set("store", t.TempDir()); err != nil {
		t.Fatal(err)
	}
	if !c.Persistent() || len(c.SessionOptions()) != 1 {
		t.Errorf("-store %q: Persistent %v, %d session options; want true, 1", c.Store, c.Persistent(), len(c.SessionOptions()))
	}
}
