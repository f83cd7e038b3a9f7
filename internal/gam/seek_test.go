package gam

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"genmapper/internal/sqldb"
)

// The statements gam's index-seek reads replaced, kept as their oracle
// (oracleObjectByID is in objcache_test.go).
const (
	oracleAssociations  = "SELECT object1_id, object2_id, evidence FROM object_rel WHERE source_rel_id = ?"
	oracleAssocBatch    = "SELECT source_rel_id, object1_id, object2_id, evidence FROM object_rel WHERE source_rel_id IN (%s)"
	oracleCountAssocs   = "SELECT COUNT(*) FROM object_rel WHERE source_rel_id = ?"
	oracleObjectAccs    = "SELECT object_id, accession FROM object WHERE source_id = ?"
	oracleObjectsScan   = "SELECT object_id, source_id, accession, text, number FROM object WHERE source_id = ?"
	oracleCountObjects  = "SELECT COUNT(*) FROM object WHERE source_id = ?"
	oracleObjectsNoText = "SELECT object_id, accession FROM object WHERE source_id = ? AND text IS NULL"
	oracleSourceRel     = "SELECT source_rel_id, source1_id, source2_id, type FROM source_rel WHERE source_rel_id = ?"
)

// oracleRows runs an oracle statement through q and returns copies of its
// rows. It also runs the statement's full-scan form (its indexed column
// wrapped in "+ 0", which no index serves) and requires the same rows, so
// the oracle does not share the index seek it judges.
func oracleRows(t *testing.T, q querier, sql string, args ...any) [][]sqldb.Value {
	t.Helper()
	run := func(sql string) [][]sqldb.Value {
		var rows [][]sqldb.Value
		err := q.QueryEach(sql, func(row []sqldb.Value) error {
			rows = append(rows, append([]sqldb.Value(nil), row...))
			return nil
		}, args...)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		return rows
	}
	rows := run(sql)
	scan := strings.NewReplacer("_id = ?", "_id + 0 = ?", "_id IN (", "_id + 0 IN (").Replace(sql)
	if scanRows := run(scan); !reflect.DeepEqual(rows, scanRows) {
		t.Fatalf("%s (%v) = %v, but its scan form gives %v", sql, args, rows, scanRows)
	}
	return rows
}

func assocsOfRows(rows [][]sqldb.Value) []Assoc {
	var out []Assoc
	for _, row := range rows {
		a := Assoc{Object1: ObjectID(row[0].(int64)), Object2: ObjectID(row[1].(int64))}
		if v, ok := row[2].(float64); ok {
			a.Evidence = v
		}
		out = append(out, a)
	}
	return out
}

func oracleCount(t *testing.T, q querier, sql string, arg int64) int64 {
	t.Helper()
	return oracleRows(t, q, sql, arg)[0][0].(int64)
}

// oracleBatch runs the IN-list statement AssociationsBatch built and splits
// its rows by mapping, each mapping's in the order the statement gave.
func oracleBatch(t *testing.T, q querier, rels []SourceRelID) map[SourceRelID][]Assoc {
	t.Helper()
	marks := strings.TrimSuffix(strings.Repeat("?, ", len(rels)), ", ")
	args := make([]any, len(rels))
	for i, rel := range rels {
		args[i] = int64(rel)
	}
	out := make(map[SourceRelID][]Assoc)
	for _, row := range oracleRows(t, q, fmt.Sprintf(oracleAssocBatch, marks), args...) {
		rel := SourceRelID(row[0].(int64))
		out[rel] = append(out[rel], assocsOfRows([][]sqldb.Value{row[1:]})...)
	}
	return out
}

// checkSeekReads compares the reads gam makes through q (a database or a
// batch's transaction) with the statements they replaced, run through q:
// the same snapshot, so the same rows in the same order.
func checkSeekReads(t *testing.T, q querier, rels []SourceRelID, srcs []SourceID) {
	t.Helper()
	for _, rel := range rels {
		want := assocsOfRows(oracleRows(t, q, oracleAssociations, int64(rel)))
		if want == nil {
			want = []Assoc{}
		}
		if got, err := collectAssociations(q, rel); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("associations of %d = %v, %v; the statement gives %v", rel, got, err, want)
		}
	}
	lists, err := seekAssocs(q, rels)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleBatch(t, q, rels)
	for i, rel := range rels {
		if !reflect.DeepEqual(lists[i], want[rel]) {
			t.Fatalf("seekAssocs[%d] (mapping %d) = %v; the IN statement gives %v", i, rel, lists[i], want[rel])
		}
	}
	for _, src := range srcs {
		want := make(map[string]ObjectID)
		for _, row := range oracleRows(t, q, oracleObjectAccs, int64(src)) {
			want[row[1].(string)] = ObjectID(row[0].(int64))
		}
		if got, err := loadObjectIDs(q, src); err != nil || !maps.Equal(got, want) {
			t.Fatalf("accessions of source %d = %v, %v; the statement gives %v", src, got, err, want)
		}
	}
}

// checkRepoReads checks every Repo read that seeks instead of running SQL
// against its statement, at the database's committed state.
func checkRepoReads(t *testing.T, r *Repo, rels []SourceRelID, srcs []SourceID, objIDs []int64) {
	t.Helper()
	checkSeekReads(t, r.db, rels, srcs)
	batch, err := r.AssociationsBatch(append(rels, rels[0]))
	if err != nil {
		t.Fatal(err)
	}
	want := oracleBatch(t, r.db, rels)
	for _, rel := range rels {
		if got, ok := batch[rel]; !ok || !reflect.DeepEqual(got, want[rel]) {
			t.Fatalf("AssociationsBatch[%d] = %v (present %v); the IN statement gives %v", rel, got, ok, want[rel])
		}
		var each []Assoc
		if err := r.AssociationsEach(rel, func(a Assoc) error { each = append(each, a); return nil }); err != nil || !reflect.DeepEqual(each, want[rel]) {
			t.Fatalf("AssociationsEach(%d) = %v, %v; want %v", rel, each, err, want[rel])
		}
		if n, err := r.AssociationCount(rel); err != nil || n != oracleCount(t, r.db, oracleCountAssocs, int64(rel)) {
			t.Fatalf("AssociationCount(%d) = %d, %v", rel, n, err)
		}
		var wantRel *SourceRel
		if rows := oracleRows(t, r.db, oracleSourceRel, int64(rel)); len(rows) > 0 {
			wantRel = rowToSourceRel(rows[0])
		}
		if got, err := r.SourceRelByID(rel); err != nil || !reflect.DeepEqual(got, wantRel) {
			t.Fatalf("SourceRelByID(%d) = %+v, %v; want %+v", rel, got, err, wantRel)
		}
	}
	for _, src := range srcs {
		var wantObjs []Object
		var wantIDs []ObjectID
		for _, row := range oracleRows(t, r.db, oracleObjectsScan, int64(src)) {
			var o Object
			fillObject(&o, row)
			wantObjs, wantIDs = append(wantObjs, o), append(wantIDs, o.ID)
		}
		if ids, err := r.ObjectIDs(src); err != nil || !reflect.DeepEqual(ids, wantIDs) {
			t.Fatalf("ObjectIDs(%d) = %v, %v; want %v", src, ids, err, wantIDs)
		}
		var objs []Object
		if err := r.ObjectsScanEach(src, func(o *Object) error { objs = append(objs, *o); return nil }); err != nil || !reflect.DeepEqual(objs, wantObjs) {
			t.Fatalf("ObjectsScanEach(%d) = %v, %v; want %v", src, objs, err, wantObjs)
		}
		if n, err := r.ObjectCount(src); err != nil || n != oracleCount(t, r.db, oracleCountObjects, int64(src)) {
			t.Fatalf("ObjectCount(%d) = %d, %v", src, n, err)
		}
	}
	// Object's miss: behind an empty object table every call misses.
	c := *r.cat.Load()
	c.rows = newObjectTable()
	r.cat.Store(&c)
	for _, id := range objIDs {
		var want *Object
		if rows := oracleRows(t, r.db, oracleObjectByID, id); len(rows) > 0 {
			want = new(Object)
			fillObject(want, rows[0])
		}
		if got, err := r.Object(ObjectID(id)); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Object(%d) = %+v, %v; want %+v", id, got, err, want)
		}
	}
}

// keysOf returns the distinct values the statements' first columns give
// through q, ascending, and one value no row carries.
func keysOf(t *testing.T, q querier, sqls ...string) []int64 {
	t.Helper()
	set := map[int64]bool{1000: true}
	for _, sql := range sqls {
		for _, row := range oracleRows(t, q, sql) {
			set[row[0].(int64)] = true
		}
	}
	keys := make([]int64, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

const (
	relsSQL      = "SELECT source_rel_id FROM source_rel"
	assocRelsSQL = "SELECT source_rel_id FROM object_rel"
	objectsSQL   = "SELECT object_id FROM object"
	assocsSQL    = "SELECT object_rel_id FROM object_rel"
)

func toRels(ids []int64) []SourceRelID {
	out := make([]SourceRelID, len(ids))
	for i, id := range ids {
		out[i] = SourceRelID(id)
	}
	return out
}

// TestSeekReadsMatchDeletedSQL drives seeded write sequences (gam's writes,
// writes around gam that delete rows or move a row to another mapping,
// source or object ID, vacuum, and open batches that commit or roll back)
// and after each step compares every read gam makes through sqldb's index
// seek with the statement it replaced. A write around gam runs while a
// cursor pins the snapshot before it, so a moved row's old index entry
// stays, and only the seek's key re-check keeps the row from its old key.
func TestSeekReadsMatchDeletedSQL(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runSeekEquivalence(t, rand.New(rand.NewSource(seed))) })
	}
}

// seekFixture is one seeded run's repository and generators.
type seekFixture struct {
	t    *testing.T
	r    *Repo
	rng  *rand.Rand
	srcs []SourceID
	objs map[SourceID][]ObjectID
	next int
	// probe holds every object ID seen so far, deleted and moved ones
	// included, and 0: the IDs Object is checked on.
	probe map[int64]bool
}

func (f *seekFixture) specs(n int) []ObjectSpec {
	out := make([]ObjectSpec, n)
	for i := range out {
		f.next++
		out[i] = ObjectSpec{Accession: fmt.Sprintf("x%d", f.next)}
		if f.rng.Intn(2) == 0 {
			out[i].Text, out[i].HasNumber, out[i].Number = "t", true, float64(f.next)
		}
	}
	return out
}

func (f *seekFixture) assocs(s1, s2 SourceID, n int) []Assoc {
	out := make([]Assoc, n)
	for i := range out {
		out[i] = Assoc{Object1: f.objs[s1][f.rng.Intn(len(f.objs[s1]))], Object2: f.objs[s2][f.rng.Intn(len(f.objs[s2]))]}
		if f.rng.Intn(2) == 0 {
			out[i].Evidence = 0.5
		}
	}
	return out
}

func (f *seekFixture) src() SourceID { return f.srcs[f.rng.Intn(len(f.srcs))] }

// pick returns one of the keys a statement gives, or the absent one.
func (f *seekFixture) pick(sql string) int64 {
	keys := keysOf(f.t, f.r.db, sql)
	return keys[f.rng.Intn(len(keys))]
}

func (f *seekFixture) exec(sql string, args ...any) {
	if _, err := f.r.db.Exec(sql, args...); err != nil {
		f.t.Fatalf("%s: %v", sql, err)
	}
}

// check runs checkRepoReads on the mappings and object IDs in sight.
func (f *seekFixture) check(rels []int64) {
	for _, id := range keysOf(f.t, f.r.db, objectsSQL) {
		f.probe[id] = true
	}
	ids := make([]int64, 0, len(f.probe))
	for id := range f.probe {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	checkRepoReads(f.t, f.r, toRels(rels), f.srcs, ids)
}

func runSeekEquivalence(t *testing.T, rng *rand.Rand) {
	f := &seekFixture{t: t, r: newRepo(t), rng: rng, objs: make(map[SourceID][]ObjectID), probe: map[int64]bool{0: true}}
	for _, name := range []string{"A", "B", "C"} {
		s, _, err := f.r.EnsureSource(Source{Name: name})
		if err != nil {
			t.Fatal(err)
		}
		f.srcs = append(f.srcs, s.ID)
	}
	for _, src := range f.srcs {
		ids, _, err := f.r.EnsureObjects(src, f.specs(15))
		if err != nil {
			t.Fatal(err)
		}
		f.objs[src] = ids
	}
	for i := 0; i < 3; i++ {
		s1, s2 := f.src(), f.src()
		if _, err := f.r.ReplaceMapping(s1, s2, RelFact, f.assocs(s1, s2, 20)); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; step < 30; step++ {
		var resume func() [][]sqldb.Value
		switch rng.Intn(9) {
		case 0:
			rel := SourceRelID(keysOf(t, f.r.db, relsSQL)[0])
			if _, err := f.r.AddAssociations(rel, f.assocs(f.srcs[0], f.srcs[1], 5), rng.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
		case 1:
			s1, s2 := f.src(), f.src()
			if _, err := f.r.ReplaceMapping(s1, s2, RelFact, f.assocs(s1, s2, 10+rng.Intn(20))); err != nil {
				t.Fatal(err)
			}
		case 2, 3:
			resume = parkQuery(t, f.r.db, "SELECT COUNT(*) FROM object_rel")
			switch rng.Intn(3) {
			case 0:
				f.exec("UPDATE object_rel SET source_rel_id = ? WHERE object_rel_id = ?", f.pick(relsSQL), f.pick(assocsSQL))
			case 1:
				f.exec("UPDATE object SET source_id = ? WHERE object_id = ?", int64(f.src()), f.pick(objectsSQL))
			default:
				f.exec("UPDATE object SET object_id = ? WHERE object_id = ?", int64(5000+step), f.pick(objectsSQL))
			}
		case 4:
			f.exec("DELETE FROM object_rel WHERE object_rel_id = ?", f.pick(assocsSQL))
			f.exec("DELETE FROM object WHERE object_id = ?", f.pick(objectsSQL))
		case 5:
			f.r.db.Vacuum()
		case 6:
			f.exec("UPDATE object SET text = NULL WHERE object_id = ?", f.pick(objectsSQL))
		default:
			f.openBatch()
		}
		f.check(keysOf(t, f.r.db, relsSQL, assocRelsSQL))
		if resume != nil {
			resume()
		}
	}
}

// openBatch writes through an open batch and checks that the batch's reads
// see its provisional rows while readers outside it see none of them; the
// batch then commits or rolls back.
func (f *seekFixture) openBatch() {
	t := f.t
	errRollback := errors.New("roll back")
	before := keysOf(t, f.r.db, relsSQL, assocRelsSQL)
	err := f.r.Atomic(func(b *Batch) error {
		src := f.src()
		if _, _, err := b.EnsureObjects(src, f.specs(5)); err != nil {
			return err
		}
		rel, err := b.ReplaceMapping(src, f.srcs[0], RelSimilarity, f.assocs(src, f.srcs[0], 8))
		if err != nil {
			return err
		}
		if _, err := b.AddAssociations(SourceRelID(before[0]), f.assocs(f.srcs[0], f.srcs[1], 3), false); err != nil {
			return err
		}
		rels := append(before, int64(rel))
		checkSeekReads(t, b.tx, toRels(rels), f.srcs)
		for _, id := range keysOf(t, b.tx, objectsSQL) {
			f.probe[id] = true // the batch's objects: Object must not see them
		}
		f.check(rels)
		// The fill finds exactly the bare objects the deleted statement did.
		var fill []ObjectSpec
		bare := oracleRows(t, b.tx, oracleObjectsNoText, int64(src))
		for _, row := range oracleRows(t, b.tx, oracleObjectAccs, int64(src)) {
			fill = append(fill, ObjectSpec{Accession: row[1].(string), Text: "filled"})
		}
		if n, err := b.FillMissingObjectInfo(src, fill); err != nil || n != len(bare) {
			t.Fatalf("FillMissingObjectInfo = %d, %v; the statement finds %d bare objects", n, err, len(bare))
		}
		if f.rng.Intn(2) == 0 {
			return errRollback
		}
		return nil
	})
	if err != nil && !errors.Is(err, errRollback) {
		t.Fatal(err)
	}
}
