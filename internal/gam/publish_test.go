package gam

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
)

func sameMap(a, b map[string]ObjectID) bool {
	return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
}

// publishedSource returns a repository with one source of n objects whose
// accessions are published (loaded by a lookup).
func publishedSource(t *testing.T, n int) (*Repo, SourceID) {
	t.Helper()
	r := newRepo(t)
	s, _, err := r.EnsureSource(Source{Name: "S"})
	if err != nil {
		t.Fatal(err)
	}
	specs := make([]ObjectSpec, n)
	for i := range specs {
		specs[i].Accession = fmt.Sprintf("a%d", i)
	}
	if _, _, err := r.EnsureObjects(s.ID, specs); err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(); err != nil { // publishes no accessions
		t.Fatal(err)
	}
	if _, err := r.LookupObjects(s.ID, []string{"a0"}); err != nil { // loads and publishes them
		t.Fatal(err)
	}
	if r.cat.Load().objects[s.ID] == nil {
		t.Fatal("the lookup published no accessions")
	}
	return r, s.ID
}

// A batch that adds objects to a published source publishes them beside
// the shared base: a reader holding the old catalog sees the old set, and
// the new catalog shares the base map rather than copying it.
func TestPublishAddsBesideTheBase(t *testing.T) {
	r, src := publishedSource(t, 1000)
	old := r.cat.Load().objects[src]
	if _, _, err := r.EnsureObjects(src, []ObjectSpec{{Accession: "new1"}, {Accession: "new2"}}); err != nil {
		t.Fatal(err)
	}
	cur := r.cat.Load().objects[src]
	if old.get("new1") != 0 || old.get("new2") != 0 || old.get("a5") == 0 {
		t.Fatal("the old catalog's accessions changed")
	}
	if cur.get("new1") == 0 || cur.get("new2") == 0 || cur.get("a5") != old.get("a5") {
		t.Fatal("the new catalog misses accessions")
	}
	if !sameMap(cur.base, old.base) || len(cur.layers) != 1 || len(cur.layers[0]) != 2 {
		t.Fatalf("publish of 2 objects built base %d entries (shared %v) and layers %d; want the base shared and one 2-entry layer",
			len(cur.base), sameMap(cur.base, old.base), len(cur.layers))
	}
}

// Lookups after many small batches equal lookups after one Reload, at
// every step equal to a plain map, and the layers stay few: each is over
// twice the size of the next.
func TestPublishManySmallBatchesEqualsReload(t *testing.T) {
	r, src := publishedSource(t, 2000)
	rng := rand.New(rand.NewSource(7))
	model := make(map[string]ObjectID)
	for i := 0; i < 2000; i++ {
		model[fmt.Sprintf("a%d", i)] = ObjectID(i + 1)
	}
	probe := func() []string {
		accs := []string{"absent"}
		for acc := range model {
			accs = append(accs, acc)
		}
		return accs
	}
	next := 0
	for b := 0; b < 300; b++ {
		var specs []ObjectSpec
		for i := rng.Intn(4); i >= 0; i-- {
			next++
			specs = append(specs, ObjectSpec{Accession: fmt.Sprintf("n%d", next)})
		}
		ids, _, err := r.EnsureObjects(src, specs)
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range specs {
			model[s.Accession] = ids[i]
		}
		a := r.cat.Load().objects[src]
		for i := 1; i < len(a.layers); i++ {
			if len(a.layers[i-1]) <= 2*len(a.layers[i]) {
				t.Fatalf("batch %d: layer sizes %d then %d", b, len(a.layers[i-1]), len(a.layers[i]))
			}
		}
		if max := bits.Len(uint(a.added)) + 1; len(a.layers) > max {
			t.Fatalf("batch %d: %d layers for %d additions", b, len(a.layers), a.added)
		}
		if b%50 == 0 {
			accs := probe()
			got, err := r.LookupObjects(src, accs)
			if err != nil {
				t.Fatal(err)
			}
			for i, id := range got {
				if acc := accs[i]; id != model[acc] {
					t.Fatalf("batch %d: %s = %d, want %d", b, acc, id, model[acc])
				}
			}
		}
	}
	accs := probe()
	before, err := r.LookupObjects(src, accs)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Reload(); err != nil {
		t.Fatal(err)
	}
	after, err := r.LookupObjects(src, accs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, after) {
		t.Fatal("lookups after many small batches differ from lookups after Reload")
	}
}

// A publish that adds k accessions to an n-entry published source copies
// O(k), not O(n): 100 publishes of 10 into 100 000 allocate less than a
// quarter of one copy of the base (about a ninth, measured), where cloning
// the base on each publish costs 100 copies. Past 1/foldDivisor of the base, the
// additions fold into a fresh base.
func TestPublishCopiesTheAdditionsNotTheBase(t *testing.T) {
	const n, k, publishes = 100_000, 10, 100
	base := make(map[string]ObjectID, n)
	for i := 0; i < n; i++ {
		base[fmt.Sprintf("a%d", i)] = ObjectID(i + 1)
	}
	batches := make([]map[string]ObjectID, publishes)
	for b := range batches {
		batches[b] = make(map[string]ObjectID, k)
		for i := 0; i < k; i++ {
			batches[b][fmt.Sprintf("b%d-%d", b, i)] = ObjectID(n + b*k + i + 1)
		}
	}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	clone := maps.Clone(base)
	runtime.ReadMemStats(&m1)
	a := &accessions{base: base}
	for _, created := range batches {
		a = a.with(created)
	}
	runtime.ReadMemStats(&m2)
	cloneBytes, publishBytes := m1.TotalAlloc-m0.TotalAlloc, m2.TotalAlloc-m1.TotalAlloc
	if !sameMap(a.base, base) || publishBytes*4 > cloneBytes {
		t.Fatalf("%d publishes of %d: %d bytes (base shared %v); one copy of the base is %d bytes",
			publishes, k, publishBytes, sameMap(a.base, base), cloneBytes)
	}
	extra := 0
	for sameMap(a.base, base) {
		extra++
		a = a.with(map[string]ObjectID{fmt.Sprintf("c%d", extra): 1})
	}
	if added := publishes*k + extra; added*foldDivisor <= n || (added-1)*foldDivisor > n ||
		len(a.layers) != 0 || len(a.base) != len(clone)+added {
		t.Fatalf("fold after %d additions to %d: base %d entries, %d layers; want it past 1/%d of the base",
			added, n, len(a.base), len(a.layers), foldDivisor)
	}
}
