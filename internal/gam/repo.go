package gam

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync/atomic"

	"genmapper/internal/sqldb"
)

// Repo provides GAM-schema access over an embedded database. It maintains
// in-memory lookup caches (source names, object accessions, mapping keys)
// so that bulk import achieves set-at-a-time speed while the authoritative
// data always lives in the database.
//
// All writes go through Atomic (batch.go): one transaction, one commit.
// The write methods on Repo itself are one-call batches.
//
// The caches, the Stats counts, the generation and publish counters and
// Object's row cache are one immutable catalog behind one pointer: a
// reader loads it once and takes no lock, so no catalog read waits for a
// batch or its fsync. Only a holder of the database's writer stores a new
// catalog: a committed batch's publish step and loadCaches (Open, Reload).
//
// Object serves committed object rows from a cache filled on first read
// (see Object). gam never deletes an object or changes its ID, source or
// accession, so a cached row stays true under every batch except one that
// fills text and number (FillMissingObjectInfo): its publish step retires
// the whole cache, and so does Reload. Rows written around gam through DB
// stay invisible to the cache, as to the other caches, until Reload.
//
// A Repo is safe for concurrent use.
type Repo struct {
	db *sqldb.DB

	// replaceHook, when set, is invoked at named stages of ReplaceMapping so
	// tests can inject mid-transaction failures. Production code leaves it nil.
	replaceHook func(stage string) error

	// cat is the published catalog.
	cat atomic.Pointer[catalog]
}

// catalog is what a Repo publishes, as of one committed state. Nothing in
// it is written after it is stored, except that Object installs rows into
// the table rows points to: the next catalog copies only the maps a batch
// changed and shares the rest.
type catalog struct {
	sources     map[string]*Source // lower(name) -> source
	sourcesByID map[SourceID]*Source
	objects     map[SourceID]*accessions // loaded per source on first use
	rels        map[relKey]SourceRelID

	// Whole-schema row counts behind Stats, computed by loadCaches and
	// moved by each committed batch's publish. byType has no zero entries.
	nObjects, nAssocs int64
	byType            map[RelType]int64

	// gen counts committed batches that changed mappings or associations,
	// and Reloads. Caches of derived mapping data compare it against the
	// value observed at load time to detect staleness.
	gen uint64

	// published counts the states Stats and Sources have shown: every
	// committed batch's publish and every Reload moves it, object-only
	// batches included (they leave gen alone). Derived renderings of those
	// two read it first and are valid while it holds.
	published uint64

	// rows is Object's cache of committed rows, a table addressed by
	// ObjectID (objtable.go), each entry shared and never written after it
	// is stored. A publish after a fill, and loadCaches, give the next
	// catalog an empty table.
	rows *objectTable
}

// accessions is a source's published accession → ID map: a base that
// readers share and, beside it, the additions of batches published since
// the base was built, in layers. A publish adds the batch's own map as the
// newest layer, merging it with the newer layers not more than twice its
// size, so each layer is over twice the next and there are few; once the
// additions pass 1/foldDivisor of the base, they fold into a fresh base.
// So an accession is copied O(log n) times between folds, and a publish
// that adds k of them copies O(k log n) amortized, not the base. Nothing
// is written after it is published.
type accessions struct {
	base   map[string]ObjectID
	layers []map[string]ObjectID // newest last
	added  int                   // entries across layers
}

const foldDivisor = 4

// get returns the ID of an accession, probing the base first.
func (a *accessions) get(acc string) ObjectID {
	if a == nil {
		return 0
	}
	if id, ok := a.base[acc]; ok {
		return id
	}
	for i := len(a.layers) - 1; i >= 0; i-- {
		if id, ok := a.layers[i][acc]; ok {
			return id
		}
	}
	return 0
}

// with returns a plus created, a non-empty map no reader has seen.
func (a *accessions) with(created map[string]ObjectID) *accessions {
	added := a.added + len(created)
	if added*foldDivisor > len(a.base) {
		base := make(map[string]ObjectID, len(a.base)+added)
		maps.Copy(base, a.base)
		for _, l := range a.layers {
			maps.Copy(base, l)
		}
		maps.Copy(base, created)
		return &accessions{base: base}
	}
	layers := append(make([]map[string]ObjectID, 0, len(a.layers)+1), a.layers...)
	for n := len(layers); n > 0 && len(layers[n-1]) <= 2*len(created); n-- {
		merged := maps.Clone(layers[n-1])
		maps.Copy(merged, created)
		created, layers = merged, layers[:n-1]
	}
	return &accessions{base: a.base, layers: append(layers, created), added: added}
}

// objectIDBound bounds the IDs Object caches. Twice the object count, and
// a chunk more, covers gam's dense AUTOINCREMENT IDs with room for gaps; a
// row written around gam under a far-out or negative ID is served
// uncached instead of growing the table's directory to reach it.
func (c *catalog) objectIDBound() int64 { return 2*c.nObjects + objChunkSlots }

// Generation returns the mapping-write counter. Any committed change to
// mappings or associations bumps it, so a cached value loaded at
// generation g is valid exactly while Generation() == g. A batch bumps it
// at most once, after its commit; a rolled-back batch never does.
func (r *Repo) Generation() uint64 { return r.cat.Load().gen }

// Published returns the publish counter. Load it BEFORE reading Stats or
// Sources: a rendering of what they return, tagged with the value loaded,
// is then current exactly while Published() still returns it. (A publish
// racing the read can only make the tag older than the rendering, which
// costs a re-render, never a stale hit.)
func (r *Repo) Published() uint64 { return r.cat.Load().published }

// SetReplaceMappingHook installs a failure-injection hook for tests of
// ReplaceMapping atomicity. Stages: "after-delete" (old mapping rows gone,
// new not yet written) and "after-insert" (new rows written, not committed).
func (r *Repo) SetReplaceMappingHook(h func(stage string) error) { r.replaceHook = h }

func (r *Repo) hook(stage string) error {
	if r.replaceHook == nil {
		return nil
	}
	return r.replaceHook(stage)
}

type relKey struct {
	s1, s2 SourceID
	typ    RelType
}

// DDL statements creating the GAM schema (Figure 4 of the paper).
var schemaDDL = []string{
	`CREATE TABLE IF NOT EXISTS source (
		source_id INTEGER PRIMARY KEY AUTOINCREMENT,
		name TEXT NOT NULL,
		content TEXT NOT NULL,
		structure TEXT NOT NULL,
		release TEXT,
		import_date TEXT
	)`,
	`CREATE UNIQUE INDEX IF NOT EXISTS idx_source_name ON source (name)`,
	`CREATE TABLE IF NOT EXISTS object (
		object_id INTEGER PRIMARY KEY AUTOINCREMENT,
		source_id INTEGER NOT NULL,
		accession TEXT NOT NULL,
		text TEXT,
		number REAL
	)`,
	`CREATE INDEX IF NOT EXISTS idx_object_source ON object (source_id)`,
	`CREATE INDEX IF NOT EXISTS idx_object_accession ON object (accession)`,
	`CREATE TABLE IF NOT EXISTS source_rel (
		source_rel_id INTEGER PRIMARY KEY AUTOINCREMENT,
		source1_id INTEGER NOT NULL,
		source2_id INTEGER NOT NULL,
		type TEXT NOT NULL
	)`,
	`CREATE INDEX IF NOT EXISTS idx_srcrel_s1 ON source_rel (source1_id)`,
	`CREATE INDEX IF NOT EXISTS idx_srcrel_s2 ON source_rel (source2_id)`,
	`CREATE TABLE IF NOT EXISTS object_rel (
		object_rel_id INTEGER PRIMARY KEY AUTOINCREMENT,
		source_rel_id INTEGER NOT NULL,
		object1_id INTEGER NOT NULL,
		object2_id INTEGER NOT NULL,
		evidence REAL
	)`,
	`CREATE INDEX IF NOT EXISTS idx_objrel_rel ON object_rel (source_rel_id)`,
	`CREATE INDEX IF NOT EXISTS idx_objrel_o1 ON object_rel (object1_id)`,
	`CREATE INDEX IF NOT EXISTS idx_objrel_o2 ON object_rel (object2_id)`,
}

// SchemaStatementCount returns the number of DDL statements the GAM schema
// needs, once, regardless of how many sources are later integrated (the
// schema-churn metric of the design ablation).
func SchemaStatementCount() int { return len(schemaDDL) }

// insertLadder is the fixed set of multi-row INSERT sizes (see the package
// doc): full chunks of the first, then each smaller one at most once.
var insertLadder = [...]int{200, 128, 64, 32, 16, 8, 4, 2, 1}

// bulkInsert holds the multi-row INSERT texts of one table, one per ladder
// size.
type bulkInsert [len(insertLadder)]string

func newBulkInsert(prefix string, width int) *bulkInsert {
	group := "(?" + strings.Repeat(", ?", width-1) + ")"
	var b bulkInsert
	for i, n := range insertLadder {
		b[i] = prefix + group + strings.Repeat(", "+group, n-1)
	}
	return &b
}

var (
	objectInsert = newBulkInsert("INSERT INTO object (source_id, accession, text, number) VALUES ", 4)
	assocInsert  = newBulkInsert("INSERT INTO object_rel (source_rel_id, object1_id, object2_id, evidence) VALUES ", 4)
)

// chunks cuts rows 0…n-1 into consecutive ladder-sized chunks and calls
// exec(start, size, sql) for each in row order, stopping at the first error.
func (b *bulkInsert) chunks(n int, exec func(start, size int, sql string) error) error {
	start := 0
	for i, size := range insertLadder {
		for ; n-start >= size; start += size {
			if err := exec(start, size, b[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// The hot statement texts are named constants so the call sites and the
// prepare-at-Open warm-up list below can never drift apart.
const (
	sqlSelectSources         = "SELECT source_id, name, content, structure, release, import_date FROM source"
	sqlInsertSource          = "INSERT INTO source (name, content, structure, release, import_date) VALUES (?, ?, ?, ?, ?)"
	sqlUpdateSourceAudit     = "UPDATE source SET release = ?, import_date = ? WHERE source_id = ?"
	sqlSelectObjectsBySource = "SELECT object_id, source_id, accession, text, number FROM object WHERE source_id = ? ORDER BY accession"
	sqlUpdateObjectInfo      = "UPDATE object SET text = ?, number = ? WHERE object_id = ?"
	sqlInsertSourceRel       = "INSERT INTO source_rel (source1_id, source2_id, type) VALUES (?, ?, ?)"
	sqlSelectSourceRels      = "SELECT source_rel_id, source1_id, source2_id, type FROM source_rel"
	sqlDeleteAssociations    = "DELETE FROM object_rel WHERE source_rel_id = ?"
	sqlDeleteSourceRel       = "DELETE FROM source_rel WHERE source_rel_id = ?"
)

// The point and per-source reads do not go through SQL: they seek an
// index (sqldb's Seek) and read the stored rows, whose columns are in
// schemaDDL order.
const (
	colID           = 0 // each table's primary key
	colObjectSource = 1 // object: object_id, source_id, accession, text, number
	colAssocRel     = 1 // object_rel: object_rel_id, source_rel_id, object1_id, object2_id, evidence
)

// The whole-schema counts run only in countStats, once per Open or Reload.
const (
	sqlCountSources      = "SELECT COUNT(*) FROM source"
	sqlCountObjects      = "SELECT COUNT(*) FROM object"
	sqlCountSourceRels   = "SELECT COUNT(*) FROM source_rel"
	sqlCountAssociations = "SELECT COUNT(*) FROM object_rel"
	sqlCountAssocsByType = "SELECT sr.type, COUNT(*) FROM object_rel o JOIN source_rel sr ON o.source_rel_id = sr.source_rel_id GROUP BY sr.type"
)

// hotStatements lists the fixed-text statements issued per imported object,
// association or interactive query, the bulk INSERTs of every ladder size
// included. Open prepares them all so the first request after startup
// already runs on compiled plans and no import ever parses a statement.
var hotStatements = append(append([]string{
	sqlSelectSources,
	sqlSelectObjectsBySource,
	sqlInsertSource,
	sqlUpdateSourceAudit,
	sqlUpdateObjectInfo,
	sqlInsertSourceRel,
	sqlSelectSourceRels,
	sqlDeleteAssociations,
	sqlDeleteSourceRel,
}, objectInsert[:]...), assocInsert[:]...)

// prepareHotStatements parses and plans the statements every import and
// query path hammers. Must run after the schema DDL (plans depend on it).
func (r *Repo) prepareHotStatements() error {
	for _, sql := range hotStatements {
		if _, err := r.db.Prepare(sql); err != nil {
			return fmt.Errorf("gam: prepare hot statement %.60q: %w", sql, err)
		}
	}
	return nil
}

// Open creates (or adopts) the GAM schema on the given database and returns
// a repository handle.
func Open(db *sqldb.DB) (*Repo, error) {
	for _, ddl := range schemaDDL {
		if _, err := db.Exec(ddl); err != nil {
			return nil, fmt.Errorf("gam: create schema: %w", err)
		}
	}
	r := &Repo{db: db}
	if err := r.prepareHotStatements(); err != nil {
		return nil, err
	}
	if err := r.loadCaches(); err != nil {
		return nil, err
	}
	return r, nil
}

// DB exposes the underlying database (for the operator layer's SQL). gam
// owns every write to its schema: rows written around it through this
// handle are invisible to the lookup caches and to Stats until Reload.
func (r *Repo) DB() *sqldb.DB { return r.db }

// Reload discards every in-memory lookup cache (sources, object
// accessions, source-rel keys) and reloads the source and mapping catalogs
// and the Stats counters from the database. Call it after the database's
// contents were replaced wholesale (DB.Restore) or written around gam: the
// cached IDs reference pre-restore rows. Reload bumps the mapping
// generation and the publish counter, so executor caches and renderings of
// Stats keyed on them invalidate too. It waits for an open batch to finish.
func (r *Repo) Reload() error { return r.loadCaches() }

// loadCaches publishes a catalog of the database's source and mapping
// catalogs, fresh row counts and an empty object cache, in a transaction
// whose writer lock keeps batches out meanwhile. Past the first (Open's),
// a catalog moves both counters on from the one it replaces.
func (r *Repo) loadCaches() error {
	tx := r.db.Begin()
	defer tx.Rollback()
	c := &catalog{
		sources:     make(map[string]*Source),
		sourcesByID: make(map[SourceID]*Source),
		objects:     make(map[SourceID]*accessions),
		rels:        make(map[relKey]SourceRelID),
		rows:        newObjectTable(),
	}
	err := tx.QueryEach(sqlSelectSources, func(row []sqldb.Value) error {
		s := rowToSource(row)
		c.sources[strings.ToLower(s.Name)] = s
		c.sourcesByID[s.ID] = s
		return nil
	})
	if err != nil {
		return fmt.Errorf("gam: load sources: %w", err)
	}
	err = tx.QueryEach(sqlSelectSourceRels, func(row []sqldb.Value) error {
		rel := rowToSourceRel(row)
		c.rels[relKey{s1: rel.Source1, s2: rel.Source2, typ: rel.Type}] = rel.ID
		return nil
	})
	if err != nil {
		return fmt.Errorf("gam: load source rels: %w", err)
	}
	st, err := countStats(tx)
	if err != nil {
		return fmt.Errorf("gam: count rows: %w", err)
	}
	c.nObjects, c.nAssocs, c.byType = st.Objects, st.Associations, st.ByType
	if old := r.cat.Load(); old != nil {
		c.gen, c.published = old.gen+1, old.published+1
	}
	r.cat.Store(c)
	return nil
}

// querier is the streaming read surface shared by *sqldb.DB and *sqldb.Tx,
// so the cache loaders and association reads run identically inside and
// outside a batch.
type querier interface {
	QueryEach(sql string, fn func(row []sqldb.Value) error, args ...any) error
	Seek(table string, col int, keys []sqldb.Value, fn func(k, n int, row []sqldb.Value) error) error
}

// seekEach hands fn the stored rows of table whose column col equals key,
// in row-ID order, with the key's posting count (see sqldb's Seek: the
// rows are read-only and valid only during the call).
func seekEach(q querier, table string, col int, key int64, fn func(n int, row []sqldb.Value) error) error {
	return q.Seek(table, col, []sqldb.Value{key}, func(_, n int, row []sqldb.Value) error { return fn(n, row) })
}

// loadObjectIDs reads the accession -> ID map of a source.
func loadObjectIDs(q querier, src SourceID) (map[string]ObjectID, error) {
	var m map[string]ObjectID
	err := seekEach(q, "object", colObjectSource, int64(src), func(n int, row []sqldb.Value) error {
		if m == nil {
			m = make(map[string]ObjectID, n)
		}
		m[row[2].(string)] = ObjectID(row[0].(int64))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("gam: load objects of source %d: %w", src, err)
	}
	if m == nil {
		m = make(map[string]ObjectID)
	}
	return m, nil
}

func rowToSource(row []sqldb.Value) *Source {
	s := &Source{
		ID:        SourceID(row[0].(int64)),
		Name:      row[1].(string),
		Content:   Content(row[2].(string)),
		Structure: Structure(row[3].(string)),
	}
	if v, ok := row[4].(string); ok {
		s.Release = v
	}
	if v, ok := row[5].(string); ok {
		s.Date = v
	}
	return s
}

// ---------------------------------------------------------------------------
// Sources

// EnsureSource returns the existing source with the given name or creates
// it, as a batch of its own (see Batch.EnsureSource).
func (r *Repo) EnsureSource(info Source) (*Source, bool, error) {
	return atomic2(r, func(b *Batch) (*Source, bool, error) { return b.EnsureSource(info) })
}

// SourceByName returns the source with the given name (case-insensitive),
// or nil when unknown.
func (r *Repo) SourceByName(name string) *Source {
	return r.cat.Load().sources[strings.ToLower(name)]
}

// SourceByID returns the source with the given ID, or nil.
func (r *Repo) SourceByID(id SourceID) *Source {
	return r.cat.Load().sourcesByID[id]
}

// Sources returns copies of all sources ordered by name.
func (r *Repo) Sources() []*Source {
	byID := r.cat.Load().sourcesByID
	out := make([]*Source, 0, len(byID))
	for _, s := range byID {
		cp := *s
		out = append(out, &cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// ---------------------------------------------------------------------------
// Objects

// ObjectSpec describes an object to insert.
type ObjectSpec struct {
	Accession string
	Text      string
	HasNumber bool
	Number    float64
}

// textArg and numberArg render the optional columns as statement
// arguments: NULL when unset.
func (s ObjectSpec) textArg() any {
	if s.Text == "" {
		return nil
	}
	return s.Text
}

func (s ObjectSpec) numberArg() any {
	if !s.HasNumber {
		return nil
	}
	return s.Number
}

// EnsureObject inserts the object unless an object with the same accession
// already exists in the source (object-level duplicate elimination, §4.1).
// It returns the object ID and whether a new row was created.
func (r *Repo) EnsureObject(src SourceID, spec ObjectSpec) (ObjectID, bool, error) {
	ids, created, err := r.EnsureObjects(src, []ObjectSpec{spec})
	if err != nil {
		return 0, false, err
	}
	return ids[0], created == 1, nil
}

// EnsureObjects bulk-inserts objects with duplicate elimination by
// accession, as a batch of its own (see Batch.EnsureObjects).
func (r *Repo) EnsureObjects(src SourceID, specs []ObjectSpec) ([]ObjectID, int, error) {
	return atomic2(r, func(b *Batch) ([]ObjectID, int, error) { return b.EnsureObjects(src, specs) })
}

// FillMissingObjectInfo back-fills text and number on existing objects
// that lack them, as a batch of its own (see Batch.FillMissingObjectInfo).
func (r *Repo) FillMissingObjectInfo(src SourceID, specs []ObjectSpec) (int, error) {
	return atomic1(r, func(b *Batch) (int, error) { return b.FillMissingObjectInfo(src, specs) })
}

// LookupObject returns the ID of the object with the given accession in
// the source, or 0 when absent. See LookupObjects for what it waits on.
func (r *Repo) LookupObject(src SourceID, accession string) (ObjectID, error) {
	if cache, cached := r.cat.Load().objects[src]; cached {
		return cache.get(accession), nil
	}
	return atomic1(r, func(b *Batch) (ObjectID, error) { return b.LookupObject(src, accession) })
}

// LookupObjects resolves many accessions at once into a slice parallel to
// accessions: the i-th ID is accessions[i]'s object, 0 when the source has
// none. Once a source's objects are cached this takes no lock and returns
// while a write batch is running. The first lookup of a source
// loads its objects as a (read-only) batch of its own, which waits for an
// open batch to finish: a map loaded at a snapshot taken before that batch
// commits lacks the batch's objects, and must not be installed in the
// cache after the batch has published its overlay.
func (r *Repo) LookupObjects(src SourceID, accessions []string) ([]ObjectID, error) {
	out := make([]ObjectID, len(accessions))
	if cache, cached := r.cat.Load().objects[src]; cached {
		for i, a := range accessions {
			out[i] = cache.get(a)
		}
		return out, nil
	}
	m, err := atomic1(r, func(b *Batch) (map[string]ObjectID, error) { return b.LookupObjects(src, accessions) })
	if err != nil {
		return nil, err
	}
	for i, a := range accessions {
		out[i] = m[a]
	}
	return out, nil
}

// Object returns the full object row by ID, or nil. The row is shared
// with every other caller and read-only: do not write to it, copy it to
// change it. A committed row is read from the database once and then
// served from memory, taking no lock and allocating nothing, until a
// batch that fills object text (FillMissingObjectInfo) publishes or
// Reload runs. An absent ID is never cached. A row changed or deleted
// around gam (through DB) after Object read it keeps being served as read
// until Reload.
func (r *Repo) Object(id ObjectID) (*Object, error) {
	// Load the cache before the query: a fill that commits in between
	// retires this cache, so the possibly stale row lands where no later
	// reader looks.
	c := r.cat.Load()
	if o := c.rows.load(id); o != nil {
		return o, nil
	}
	// The primary-key seek reads its row straight into the new entry. It
	// calls the database, not seekEach: through the interface the key and
	// the callback would be allocated.
	var o *Object
	err := r.db.Seek("object", colID, []sqldb.Value{int64(id)}, func(_, _ int, row []sqldb.Value) error {
		o = new(Object)
		fillObject(o, row)
		return nil
	})
	if err != nil || o == nil {
		return nil, err
	}
	// A racing miss may have stored the same row first; keep its entry,
	// so every reader of this cache shares one pointer.
	return c.rows.install(id, o, c.objectIDBound()), nil
}

// ObjectsScanEach streams all objects of a source in storage order (no
// accession sort) through fn, the cheapest full pass over a source. It
// reads the database, not Object's cache, and fills nothing. The Object
// passed to fn is reused between calls; copy it if kept. The objects are
// one consistent snapshot; fn must not write to the repository or issue
// further queries.
func (r *Repo) ObjectsScanEach(src SourceID, fn func(*Object) error) error {
	var obj Object
	return seekEach(r.db, "object", colObjectSource, int64(src), func(_ int, row []sqldb.Value) error {
		obj = Object{}
		fillObject(&obj, row)
		return fn(&obj)
	})
}

// ObjectIDs returns the IDs of a source's objects in storage order, one
// snapshot: ascending, as gam allocates them, unless rows were written
// around gam. GenerateView collects a whole source with it.
func (r *Repo) ObjectIDs(src SourceID) ([]ObjectID, error) {
	var ids []ObjectID
	err := seekEach(r.db, "object", colObjectSource, int64(src), func(n int, row []sqldb.Value) error {
		if ids == nil {
			ids = make([]ObjectID, 0, n)
		}
		ids = append(ids, ObjectID(row[0].(int64)))
		return nil
	})
	return ids, err
}

// ObjectsBySourceEach streams all objects of a source ordered by
// accession through fn, without materializing the object list. The Object
// passed to fn is reused between calls; copy it if kept. The objects are
// one consistent snapshot; fn must not write to the repository or issue
// further queries.
func (r *Repo) ObjectsBySourceEach(src SourceID, fn func(*Object) error) error {
	var obj Object
	return r.db.QueryEach(sqlSelectObjectsBySource, func(row []sqldb.Value) error {
		obj = Object{}
		fillObject(&obj, row)
		return fn(&obj)
	}, int64(src))
}

// ObjectsBySource returns all objects of a source ordered by accession.
func (r *Repo) ObjectsBySource(src SourceID) ([]*Object, error) {
	var out []*Object
	err := r.ObjectsBySourceEach(src, func(o *Object) error {
		cp := *o
		out = append(out, &cp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ObjectCount returns the number of objects in a source (all sources when
// src is 0, read from the Stats counters).
func (r *Repo) ObjectCount(src SourceID) (int64, error) {
	if src == 0 {
		return r.cat.Load().nObjects, nil
	}
	return seekCount(r.db, "object", colObjectSource, int64(src))
}

// seekCount counts the rows seekEach would hand over.
func seekCount(q querier, table string, col int, key int64) (int64, error) {
	var n int64
	err := seekEach(q, table, col, key, func(int, []sqldb.Value) error {
		n++
		return nil
	})
	return n, err
}

// fillObject populates an Object from a full object row, copying the
// scalar values out so the (reused) row slice may be recycled.
func fillObject(o *Object, row []sqldb.Value) {
	o.ID = ObjectID(row[0].(int64))
	o.Source = SourceID(row[1].(int64))
	o.Accession = row[2].(string)
	if v, ok := row[3].(string); ok {
		o.Text = v
	}
	if v, ok := row[4].(float64); ok {
		o.HasNumber, o.Number = true, v
	}
}
