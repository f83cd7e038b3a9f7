package genmapper

// System-level durability tests: a durable GenMapper survives an abrupt
// stop (no checkpoint, no clean close) with every committed import
// intact, and Restore invalidates all derived layers (repo caches,
// executor mapping cache, source graph) along with the engine state.

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"genmapper/internal/gam"
	"genmapper/internal/gen"
	"genmapper/internal/wal"
)

// checkRecount asserts that the system's maintained Stats equal those of a
// repository freshly opened over its database, which counts with SQL
// (opening adds no log record: its DDL changes nothing).
func checkRecount(t *testing.T, what string, sys *System) {
	t.Helper()
	fresh, err := gam.Open(sys.DB())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := sys.Stats()
	want, _ := fresh.Stats()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: maintained stats %v, recount %v", what, got, want)
	}
}

func importSmallUniverse(t *testing.T, sys *System) *Universe {
	t.Helper()
	u := gen.NewUniverse(gen.Config{Seed: 5, Scale: 0.001})
	if _, err := sys.ImportUniverse(u, ImportOptions{DeriveSubsumed: true}, nil); err != nil {
		t.Fatal(err)
	}
	return u
}

func TestDurableSystemSurvivesAbruptStop(t *testing.T) {
	dir := t.TempDir()
	sys, err := OpenDurable(dir, DurableOptions{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	importSmallUniverse(t, sys)
	want, err := sys.Stats()
	if err != nil {
		t.Fatal(err)
	}
	wantDump := sys.DB().DumpString()
	// Abrupt stop: release the log but skip any checkpoint — recovery must
	// come entirely from the WAL tail.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := OpenDurable(dir, DurableOptions{CheckpointInterval: -1})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer sys2.Close()
	got, err := sys2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got.Objects != want.Objects || got.Sources != want.Sources ||
		got.Mappings != want.Mappings || got.Associations != want.Associations {
		t.Fatalf("recovered stats %v, want %v", got, want)
	}
	if sys2.DB().DumpString() != wantDump {
		t.Fatal("recovered database is not byte-identical to the pre-stop state")
	}
	if ws := sys2.SQLWALStats(); !ws.Enabled || ws.RecoveredRecords == 0 {
		t.Fatalf("expected log replay at open, stats = %+v", ws)
	}
	// The recovered system answers queries and accepts new imports.
	srcs := sys2.Sources()
	if len(srcs) == 0 {
		t.Fatal("no sources after recovery")
	}
	if _, err := sys2.AnnotationView(Query{
		Source:  "LocusLink",
		Targets: []Target{{Source: "Hugo"}},
	}); err != nil {
		t.Fatalf("annotation view after recovery: %v", err)
	}
}

func TestDurableCheckpointShortensRecovery(t *testing.T) {
	dir := t.TempDir()
	sys, err := OpenDurable(dir, DurableOptions{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	importSmallUniverse(t, sys)
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	wantDump := sys.DB().DumpString()
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	sys2, err := OpenDurable(dir, DurableOptions{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if ws := sys2.SQLWALStats(); ws.RecoveredRecords != 0 {
		t.Fatalf("checkpointed system replayed %d records, want 0", ws.RecoveredRecords)
	}
	if sys2.DB().DumpString() != wantDump {
		t.Fatal("checkpoint recovery diverged")
	}
}

// TestSystemRestoreInvalidatesDerivedCaches: after Restore, the repo's
// source catalog, the executor's mapping cache and the source graph must
// all describe the restored contents, not the pre-restore ones.
func TestSystemRestoreInvalidatesDerivedCaches(t *testing.T) {
	dir := t.TempDir()
	sys, err := OpenDurable(dir, DurableOptions{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	importSmallUniverse(t, sys)

	snap := filepath.Join(t.TempDir(), "before.snap")
	if err := sys.SaveSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	sourcesBefore := len(sys.Sources())

	// Mutate past the snapshot: a new source with a mapping, so graph,
	// repo caches and executor all pick it up.
	d := &Dataset{Source: SourceInfo{Name: "Extra", Content: "other", Structure: "flat"}}
	if _, err := sys.ImportDataset(d, ImportOptions{}); err != nil {
		t.Fatal(err)
	}
	if len(sys.Sources()) != sourcesBefore+1 {
		t.Fatalf("import did not add a source")
	}
	if sys.Repo().SourceByName("Extra") == nil {
		t.Fatal("repo cache missing new source")
	}

	if err := sys.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := len(sys.Sources()); got != sourcesBefore {
		t.Fatalf("sources after restore = %d, want %d", got, sourcesBefore)
	}
	if sys.Repo().SourceByName("Extra") != nil {
		t.Fatal("repo cache still holds the rolled-back source after Restore")
	}
	// Mapping queries still run on the restored graph + executor.
	if _, err := sys.AnnotationView(Query{
		Source:  "LocusLink",
		Targets: []Target{{Source: "Hugo"}},
	}); err != nil {
		t.Fatalf("annotation view after restore: %v", err)
	}

	// And the restore is durable: reopening must NOT resurrect "Extra"
	// from the pre-restore WAL tail.
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	sys2, err := OpenDurable(dir, DurableOptions{CheckpointInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer sys2.Close()
	if sys2.Repo().SourceByName("Extra") != nil {
		t.Fatal("pre-restore WAL tail replayed over the restored state")
	}
	if got := len(sys2.Sources()); got != sourcesBefore {
		t.Fatalf("sources after restore+reopen = %d, want %d", got, sourcesBefore)
	}
}

// TestImportRecoveryCrashSweep crashes the filesystem at every IO operation
// of the imports that follow a first, acknowledged one — once losing the
// unsynced bytes, once keeping half of them (a torn record), once keeping
// all — and recovers. An import is one log record, so the recovered system
// must be byte-identical to the state after some whole number of imports,
// never one in between, and must include every import that was
// acknowledged. The remaining files then import to the same final state
// as an undisturbed run (no ID was burnt by the crash).
func TestImportRecoveryCrashSweep(t *testing.T) {
	u := gen.NewUniverse(gen.Config{Seed: 5, Scale: 0.001})
	paths, err := u.WriteFiles(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	files := []struct{ name, format string }{
		{"GO", "obo"}, {"LocusLink", "locuslink"}, {"Enzyme", "enzyme"},
	}
	open := func(fs *wal.FaultFS) *System {
		t.Helper()
		// Segments far smaller than an import's record: the log rotates
		// after every import, which puts rotation IO into the sweep.
		sys, err := OpenDurable("", DurableOptions{FS: fs, Sync: wal.SyncAlways, SegmentSize: 8 << 10, CheckpointInterval: -1})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return sys
	}
	importFile := func(sys *System, i int) error {
		_, err := sys.ImportFile(files[i].format, paths[files[i].name], u.SourceInfo(files[i].name),
			ImportOptions{DeriveSubsumed: true})
		return err
	}

	// Dry run: the state and the IO-op count after each import.
	dry := wal.NewFaultFS()
	sys := open(dry)
	dumps := make([]string, len(files)+1)
	stats := make([]*Stats, len(files)+1)
	ops := make([]int, len(files)+1)
	for i := range files {
		if err := importFile(sys, i); err != nil {
			t.Fatalf("dry run: import %s: %v", files[i].name, err)
		}
		dumps[i+1], ops[i+1] = sys.DB().DumpString(), dry.OpCount()
		if stats[i+1], err = sys.Stats(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}
	first, last := ops[1]+1, ops[len(files)]
	t.Logf("sweeping IO ops %d..%d, three torn-tail variants each", first, last)
	if last-first < 3 {
		t.Fatalf("only %d IO ops to crash at", last-first+1)
	}

	torn := map[string]func(int) int{
		"lost": nil,
		"half": func(unsynced int) int { return unsynced / 2 },
		"kept": func(unsynced int) int { return unsynced },
	}
	for op := first; op <= last; op++ {
		for variant, tornFn := range torn {
			fs := wal.NewFaultFS()
			sys := open(fs)
			if err := importFile(sys, 0); err != nil {
				t.Fatalf("op %d: first import: %v", op, err)
			}
			fs.SetPlan(wal.FaultPlan{AtOp: op, Kind: wal.FaultCrash})
			acked := 1
			for acked < len(files) && importFile(sys, acked) == nil {
				acked++
			}
			// The filesystem under it may have crashed, so Close may fail:
			// it is only called to stop the system's goroutines.
			sys.Close()
			fs.SimulateCrash(tornFn)

			rec := open(fs)
			got := rec.DB().DumpString()
			k := -1
			for i := 1; i <= len(files); i++ {
				if dumps[i] == got {
					k = i
				}
			}
			if k < 0 {
				st, _ := rec.Stats()
				t.Fatalf("op %d (%s): recovered state is not the state after any whole import: %v", op, variant, st)
			}
			if k < acked {
				t.Fatalf("op %d (%s): recovered %d imports but %d were acknowledged", op, variant, k, acked)
			}
			if st, err := rec.Stats(); err != nil || !reflect.DeepEqual(st, stats[k]) {
				t.Fatalf("op %d (%s): recovered stats %v (%v), want %v", op, variant, st, err, stats[k])
			}
			checkRecount(t, fmt.Sprintf("op %d (%s) recovered", op, variant), rec)
			for i := k; i < len(files); i++ {
				if err := importFile(rec, i); err != nil {
					t.Fatalf("op %d (%s): import %s after recovery: %v", op, variant, files[i].name, err)
				}
			}
			checkRecount(t, fmt.Sprintf("op %d (%s) finished", op, variant), rec)
			if rec.DB().DumpString() != dumps[len(files)] {
				t.Fatalf("op %d (%s): finishing the imports after recovery does not reach the undisturbed final state", op, variant)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
