package gam

import (
	"fmt"
	"maps"
	"strings"

	"genmapper/internal/sqldb"
)

// Batch is the write surface of a Repo, bound to one database transaction
// by Repo.Atomic. Every statement gam ever writes is executed here. Reads
// made through a Batch observe the database as of the batch's start plus
// the batch's own uncommitted writes; readers outside it see none of them
// until the commit.
//
// Cache entries a batch creates (sources, accession → ID, mapping keys)
// live in a batch-local overlay consulted before the Repo's published
// catalog. The overlay goes into the next catalog only after the
// transaction committed and is dropped when it rolled back, so a failed
// batch leaves no ID behind for a row that no longer exists. The batch's
// row-count deltas behind Repo.Stats travel the same way.
//
// A Batch is not safe for concurrent use and is dead once Atomic returns.
type Batch struct {
	r  *Repo
	tx *sqldb.Tx

	// cat is the catalog published when the batch began. Only a holder of
	// the writer stores one, so it stays current until the batch publishes.
	cat *catalog

	sources map[string]*Source               // lower(name) -> source created or re-audited here
	objects map[SourceID]map[string]ObjectID // accession -> ID of objects created here
	loaded  map[SourceID]*accessions         // committed accessions loaded here
	rels    map[relKey]SourceRelID           // mappings created here; 0 marks one deleted here

	// mappingsChanged records a write to SOURCE_REL or OBJECT_REL: the
	// commit then bumps the Repo's generation, once.
	mappingsChanged bool

	// objectsFilled records an UPDATE of object text or number: publish
	// then retires Repo.Object's cache.
	objectsFilled bool

	// Row-count deltas for the Repo's Stats counters. byType is allocated
	// by the first association write, so read-only batches allocate none.
	dObjects, dAssocs int64
	dByType           map[RelType]int64
}

// Atomic runs fn on a fresh Batch inside one database transaction. When fn
// returns nil the transaction commits — on a durable database as a single
// log record behind a single fsync — and the batch's cache entries become
// visible; when fn (or the log append) fails, everything fn wrote is rolled
// back, no AUTOINCREMENT value stays burnt, the caches and Generation() are
// untouched, and the error is returned.
//
// Batches are serialised on the database's writer lock, which the
// transaction holds from Begin until the caches are published, so fn
// reads the state it writes on. fn must write through the Batch only —
// calling the Repo's own write methods (or Atomic) from inside fn
// deadlocks. The fsync is waited for with no lock held; when it fails its
// error is returned, and the caches, like the database, show the batch.
func (r *Repo) Atomic(fn func(*Batch) error) error {
	tx := r.db.Begin()
	b := &Batch{
		r:       r,
		tx:      tx,
		cat:     r.cat.Load(),
		sources: make(map[string]*Source),
		objects: make(map[SourceID]map[string]ObjectID),
		rels:    make(map[relKey]SourceRelID),
	}
	if err := fn(b); err != nil {
		b.tx.Rollback()
		return err
	}
	// The rows first, then the catalog, both before the fsync wait: a
	// reader that resolves a mapping key in the new catalog finds its rows.
	if err := b.tx.Publish(); err != nil {
		return err
	}
	b.publish()
	return b.tx.Commit()
}

// atomic1 and atomic2 run fn as a batch of its own and return its results,
// or zero values when the batch (fn or its commit) failed: the Repo's write
// methods are these one-call batches.
func atomic1[T any](r *Repo, fn func(*Batch) (T, error)) (T, error) {
	var out T
	err := r.Atomic(func(b *Batch) (err error) {
		out, err = fn(b)
		return err
	})
	if err != nil {
		var zero T
		return zero, err
	}
	return out, nil
}

func atomic2[T, U any](r *Repo, fn func(*Batch) (T, U, error)) (T, U, error) {
	var t T
	var u U
	err := r.Atomic(func(b *Batch) (err error) {
		t, u, err = fn(b)
		return err
	})
	if err != nil {
		var zt T
		var zu U
		return zt, zu, err
	}
	return t, u, nil
}

// publish stores the catalog of a committed batch: the one it began with,
// its overlay merged in, the counts moved and the counters advanced. Only
// maps the batch changed are copied. A source's published accessions get
// the batch's additions beside them (accessions.with); a map the batch
// loaded or created goes in as it is, as no reader has seen it.
func (b *Batch) publish() {
	c := *b.cat
	if len(b.sources) > 0 {
		c.sources, c.sourcesByID = maps.Clone(c.sources), maps.Clone(c.sourcesByID)
		for key, s := range b.sources {
			c.sources[key] = s
			c.sourcesByID[s.ID] = s
		}
	}
	if len(b.objects)+len(b.loaded) > 0 {
		c.objects = maps.Clone(c.objects)
		maps.Copy(c.objects, b.loaded)
		for src, created := range b.objects {
			a, ok := c.objects[src]
			switch {
			case !ok:
				// Only a source this batch created has no base (see
				// baseObjects): the overlay is its complete object set.
				c.objects[src] = &accessions{base: created}
			case len(created) == 0:
				// Nothing to add: the base stays as it is.
			case b.loaded[src] == nil:
				// Published before this batch: readers may hold it.
				c.objects[src] = a.with(created)
			default:
				maps.Copy(a.base, created)
			}
		}
	}
	if len(b.rels) > 0 {
		c.rels = maps.Clone(c.rels)
		for key, id := range b.rels {
			if id == 0 {
				delete(c.rels, key)
			} else {
				c.rels[key] = id
			}
		}
	}
	if b.objectsFilled {
		c.rows = newObjectTable()
	}
	c.nObjects += b.dObjects
	c.nAssocs += b.dAssocs
	if len(b.dByType) > 0 {
		c.byType = maps.Clone(c.byType)
		for typ, d := range b.dByType {
			if n := c.byType[typ] + d; n != 0 {
				c.byType[typ] = n
			} else {
				delete(c.byType, typ)
			}
		}
	}
	if b.mappingsChanged {
		c.gen++
	}
	c.published++
	b.r.cat.Store(&c)
}

// source resolves a source ID against the overlay, then the catalog.
func (b *Batch) source(id SourceID) *Source {
	for _, s := range b.sources {
		if s.ID == id {
			return s
		}
	}
	return b.cat.sourcesByID[id]
}

// baseObjects returns the committed accessions of a source: the
// catalog's, or a map loaded through the batch's transaction on first use
// and kept in the overlay until publish. The load always precedes the
// batch's first object insert into that source (EnsureObjects calls it
// first), so what it reads is committed state. A source created by this
// batch has no committed objects: its base is nil.
func (b *Batch) baseObjects(src SourceID) (*accessions, error) {
	if a, ok := b.cat.objects[src]; ok || b.cat.sourcesByID[src] == nil {
		return a, nil
	}
	if a, ok := b.loaded[src]; ok {
		return a, nil
	}
	m, err := loadObjectIDs(b.tx, src)
	if err != nil {
		return nil, err
	}
	if b.loaded == nil {
		b.loaded = make(map[SourceID]*accessions)
	}
	a := &accessions{base: m}
	b.loaded[src] = a
	return a, nil
}

// findRel resolves a mapping key against the overlay, then the catalog.
func (b *Batch) findRel(key relKey) (SourceRelID, bool) {
	if id, ok := b.rels[key]; ok {
		return id, id != 0
	}
	id, ok := b.cat.rels[key]
	return id, ok
}

// countAssocs records n associations added (negative: removed) under
// mapping rel. A mapping this batch does not know, or has deleted, counts
// towards no type, as it joins no SOURCE_REL row.
func (b *Batch) countAssocs(rel SourceRelID, n int64) {
	if n == 0 {
		return
	}
	b.dAssocs += n
	var typ RelType
	for key, id := range b.rels {
		if id == rel {
			typ = key.typ
		}
	}
	for key, id := range b.cat.rels {
		if _, shadowed := b.rels[key]; id == rel && !shadowed {
			typ = key.typ
		}
	}
	if typ == "" {
		return
	}
	if b.dByType == nil {
		b.dByType = make(map[RelType]int64)
	}
	b.dByType[typ] += n
}

// ---------------------------------------------------------------------------
// Sources

// EnsureSource returns the existing source with the given name or creates
// it. The boolean reports whether a new source was created. When the source
// exists but release/date differ, the audit fields are updated (the paper's
// source-level duplicate elimination compares name and audit info).
func (b *Batch) EnsureSource(info Source) (*Source, bool, error) {
	key := strings.ToLower(info.Name)
	s := b.sources[key]
	if s == nil {
		s = b.cat.sources[key]
	}
	if s != nil {
		if info.Release != "" && info.Release != s.Release {
			if _, err := b.tx.Exec(
				sqlUpdateSourceAudit,
				info.Release, info.Date, int64(s.ID)); err != nil {
				return nil, false, fmt.Errorf("gam: update source audit: %w", err)
			}
			// Sources handed out earlier are shared with readers: re-audit
			// a copy and let publish swap it in.
			cp := *s
			cp.Release, cp.Date = info.Release, info.Date
			s = &cp
			b.sources[key] = s
		}
		return s, false, nil
	}
	if info.Name == "" {
		return nil, false, fmt.Errorf("gam: source name must not be empty")
	}
	content, err := ParseContent(string(info.Content))
	if err != nil {
		return nil, false, err
	}
	structure, err := ParseStructure(string(info.Structure))
	if err != nil {
		return nil, false, err
	}
	res, err := b.tx.Exec(
		sqlInsertSource,
		info.Name, string(content), string(structure), info.Release, info.Date)
	if err != nil {
		return nil, false, fmt.Errorf("gam: insert source: %w", err)
	}
	s = &Source{
		ID: SourceID(res.LastInsertID), Name: info.Name,
		Content: content, Structure: structure,
		Release: info.Release, Date: info.Date,
	}
	b.sources[key] = s
	return s, true, nil
}

// ---------------------------------------------------------------------------
// Objects

// EnsureObjects bulk-inserts objects with duplicate elimination by
// accession. It returns the object IDs aligned with specs and the number of
// newly created rows. Batched multi-row INSERTs keep large imports fast.
func (b *Batch) EnsureObjects(src SourceID, specs []ObjectSpec) ([]ObjectID, int, error) {
	if b.source(src) == nil {
		return nil, 0, fmt.Errorf("gam: unknown source id %d", src)
	}
	base, err := b.baseObjects(src)
	if err != nil {
		return nil, 0, err
	}
	created := b.objects[src]
	if created == nil {
		created = make(map[string]ObjectID)
		b.objects[src] = created
	}

	ids := make([]ObjectID, len(specs))
	var newIdx []int
	// firstSeen records the spec index of the first occurrence of each new
	// accession; batch-internal duplicates collapse onto it (encoded as a
	// negative placeholder patched after insertion).
	firstSeen := make(map[string]int)
	for i, spec := range specs {
		if spec.Accession == "" {
			return nil, 0, fmt.Errorf("gam: object %d has empty accession", i)
		}
		if id := base.get(spec.Accession); id != 0 {
			ids[i] = id
			continue
		}
		if id, ok := created[spec.Accession]; ok {
			ids[i] = id
			continue
		}
		if first, dup := firstSeen[spec.Accession]; dup {
			ids[i] = ObjectID(-int64(first) - 1)
			continue
		}
		firstSeen[spec.Accession] = i
		newIdx = append(newIdx, i)
	}

	args := make([]any, 0, 4*min(len(newIdx), insertLadder[0]))
	err = objectInsert.chunks(len(newIdx), func(start, size int, sql string) error {
		chunk := newIdx[start : start+size]
		args = args[:0]
		for _, i := range chunk {
			spec := specs[i]
			args = append(args, int64(src), spec.Accession, spec.textArg(), spec.numberArg())
		}
		res, err := b.tx.Exec(sql, args...)
		if err != nil {
			return fmt.Errorf("gam: insert objects: %w", err)
		}
		b.dObjects += int64(size)
		// AUTOINCREMENT IDs are contiguous for a single multi-row insert.
		firstID := res.LastInsertID - int64(size) + 1
		for ci, i := range chunk {
			id := ObjectID(firstID + int64(ci))
			ids[i] = id
			created[specs[i].Accession] = id
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	// Patch batch-internal duplicates.
	for i := range ids {
		if ids[i] < 0 {
			first := int(-int64(ids[i]) - 1)
			ids[i] = ids[first]
		}
	}
	return ids, len(newIdx), nil
}

// FillMissingObjectInfo back-fills text and number on existing objects
// that lack them. Cross-references create bare target objects before the
// target source itself is imported; when the real source data arrives, the
// descriptive text must land on those pre-existing rows. It returns the
// number of updated objects.
func (b *Batch) FillMissingObjectInfo(src SourceID, specs []ObjectSpec) (int, error) {
	bySpec := make(map[string]ObjectSpec, len(specs))
	for _, s := range specs {
		if s.Text != "" || s.HasNumber {
			bySpec[s.Accession] = s
		}
	}
	if len(bySpec) == 0 {
		return 0, nil
	}
	// No statement runs inside another's iteration: the bare objects are
	// collected first and updated afterwards.
	type fill struct {
		id   int64
		spec ObjectSpec
	}
	var fills []fill
	err := seekEach(b.tx, "object", colObjectSource, int64(src), func(_ int, row []sqldb.Value) error {
		if spec, ok := bySpec[row[2].(string)]; ok && row[3] == nil {
			fills = append(fills, fill{id: row[0].(int64), spec: spec})
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for n, f := range fills {
		if _, err := b.tx.Exec(sqlUpdateObjectInfo, f.spec.textArg(), f.spec.numberArg(), f.id); err != nil {
			return n, err
		}
		b.objectsFilled = true
	}
	return len(fills), nil
}

// LookupObject returns the ID of the object with the given accession in
// the source, or 0 when absent.
func (b *Batch) LookupObject(src SourceID, accession string) (ObjectID, error) {
	if id, ok := b.objects[src][accession]; ok {
		return id, nil
	}
	base, err := b.baseObjects(src)
	if err != nil {
		return 0, err
	}
	return base.get(accession), nil
}

// LookupObjects resolves many accessions at once; missing accessions map
// to 0.
func (b *Batch) LookupObjects(src SourceID, accessions []string) (map[string]ObjectID, error) {
	base, err := b.baseObjects(src)
	if err != nil {
		return nil, err
	}
	created := b.objects[src]
	out := make(map[string]ObjectID, len(accessions))
	for _, a := range accessions {
		if id, ok := created[a]; ok {
			out[a] = id
		} else {
			out[a] = base.get(a)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Mappings and associations

// EnsureSourceRel returns the mapping (s1, s2, typ), creating it when
// absent. The boolean reports creation. Mappings are directional rows but
// FindMapping searches both directions.
func (b *Batch) EnsureSourceRel(s1, s2 SourceID, typ RelType) (SourceRelID, bool, error) {
	if _, err := ParseRelType(string(typ)); err != nil {
		return 0, false, err
	}
	if b.source(s1) == nil || b.source(s2) == nil {
		return 0, false, fmt.Errorf("gam: source rel references unknown source (%d, %d)", s1, s2)
	}
	key := relKey{s1: s1, s2: s2, typ: typ}
	if id, ok := b.findRel(key); ok {
		return id, false, nil
	}
	res, err := b.tx.Exec(sqlInsertSourceRel,
		int64(s1), int64(s2), string(typ))
	if err != nil {
		return 0, false, fmt.Errorf("gam: insert source_rel: %w", err)
	}
	id := SourceRelID(res.LastInsertID)
	b.rels[key] = id
	b.mappingsChanged = true
	return id, true, nil
}

// FindIsARel returns the intra-source IS_A mapping of a source, or 0 when
// the source has no taxonomy structure. The boolean reports presence.
func (b *Batch) FindIsARel(src SourceID) (SourceRelID, bool) {
	return b.findRel(relKey{s1: src, s2: src, typ: RelIsA})
}

// Associations returns every association of a mapping, the batch's own
// inserts included.
func (b *Batch) Associations(rel SourceRelID) ([]Assoc, error) {
	return collectAssociations(b.tx, rel)
}

// AddAssociations bulk-inserts associations under a mapping. When dedup is
// true, pairs already present in the mapping are skipped (object-level
// duplicate elimination on re-import). It returns the number of rows
// inserted.
func (b *Batch) AddAssociations(rel SourceRelID, assocs []Assoc, dedup bool) (int, error) {
	if len(assocs) == 0 {
		return 0, nil
	}
	seen := make(map[[2]ObjectID]bool, len(assocs))
	if dedup {
		err := associationsEach(b.tx, rel, func(a Assoc) error {
			seen[[2]ObjectID{a.Object1, a.Object2}] = true
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	var pending []Assoc
	for _, a := range assocs {
		key := [2]ObjectID{a.Object1, a.Object2}
		if seen[key] {
			continue
		}
		seen[key] = true
		pending = append(pending, a)
	}
	return b.insertAssociations(rel, pending)
}

// insertAssociations chunk-inserts associations under a mapping with
// multi-row INSERTs (unset evidence is stored as NULL). It returns the
// number of rows inserted before any error. Evidence outside [0, 1], NaN
// and ±Inf are rejected with an *EvidenceError before anything is written.
func (b *Batch) insertAssociations(rel SourceRelID, assocs []Assoc) (int, error) {
	if err := checkEvidence(assocs); err != nil {
		return 0, err
	}
	inserted := 0
	var relArg any = int64(rel)
	args := make([]any, 0, 4*min(len(assocs), insertLadder[0]))
	err := assocInsert.chunks(len(assocs), func(start, size int, sql string) error {
		args = args[:0]
		for _, a := range assocs[start : start+size] {
			var ev any
			if a.Evidence != 0 {
				ev = a.Evidence
			}
			args = append(args, relArg, int64(a.Object1), int64(a.Object2), ev)
		}
		if _, err := b.tx.Exec(sql, args...); err != nil {
			return fmt.Errorf("gam: insert associations: %w", err)
		}
		inserted += size
		b.mappingsChanged = true
		return nil
	})
	b.countAssocs(rel, int64(inserted))
	return inserted, err
}

// DeleteMapping removes a mapping and its associations (used to refresh
// materialized derived mappings).
func (b *Batch) DeleteMapping(rel SourceRelID) error {
	res, err := b.tx.Exec(sqlDeleteAssociations, int64(rel))
	if err != nil {
		return err
	}
	b.countAssocs(rel, -res.RowsAffected)
	if _, err := b.tx.Exec(sqlDeleteSourceRel, int64(rel)); err != nil {
		return err
	}
	for key, id := range b.rels {
		if id == rel {
			b.rels[key] = 0
		}
	}
	for key, id := range b.cat.rels {
		if _, shadowed := b.rels[key]; id == rel && !shadowed {
			b.rels[key] = 0
		}
	}
	b.mappingsChanged = true
	return nil
}

// ReplaceMapping replaces the mapping (s1, s2, typ) and all its
// associations with the given association set, creating the mapping when
// absent. It returns the mapping ID now holding the associations (a fresh
// one: the old mapping row is deleted, not reused). An association set
// with invalid evidence (see insertAssociations) is rejected before the
// old mapping is touched.
func (b *Batch) ReplaceMapping(s1, s2 SourceID, typ RelType, assocs []Assoc) (SourceRelID, error) {
	if err := checkEvidence(assocs); err != nil {
		return 0, fmt.Errorf("gam: replace mapping: %w", err)
	}
	if old, ok := b.findRel(relKey{s1: s1, s2: s2, typ: typ}); ok {
		if err := b.DeleteMapping(old); err != nil {
			return 0, fmt.Errorf("gam: replace mapping: %w", err)
		}
	}
	if err := b.r.hook("after-delete"); err != nil {
		return 0, err
	}
	id, _, err := b.EnsureSourceRel(s1, s2, typ)
	if err != nil {
		return 0, fmt.Errorf("gam: replace mapping: %w", err)
	}
	if _, err := b.insertAssociations(id, assocs); err != nil {
		return 0, fmt.Errorf("gam: replace mapping: %w", err)
	}
	if err := b.r.hook("after-insert"); err != nil {
		return 0, err
	}
	return id, nil
}
