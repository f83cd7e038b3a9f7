package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"sync"
	"testing"

	"genmapper/internal/gam"
)

var statsLineRe = regexp.MustCompile(`<h1>GenMapper</h1>\n<p>([^<]*)</p>`)

// statsLine fetches a page and returns its stats line.
func statsLine(t testing.TB, ts *httptest.Server, query bool) string {
	t.Helper()
	var resp *http.Response
	var err error
	if query {
		resp, err = http.PostForm(ts.URL+"/query", url.Values{"source": {"LocusLink"}, "targets": {"Hugo"}})
	} else {
		resp, err = http.Get(ts.URL + "/")
	}
	if err != nil {
		t.Error(err)
		return ""
	}
	body := readBody(t, resp)
	resp.Body.Close()
	m := statsLineRe.FindStringSubmatch(body)
	if m == nil {
		t.Errorf("no stats line in:\n%s", body)
		return ""
	}
	return m[1]
}

// Without commits the shell is rendered once, by the first page, and every
// later page reuses it.
func TestPageShellRenderedOncePerPublish(t *testing.T) {
	srv := New(testSystem(t))
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	statsLine(t, ts, false)
	first := srv.shell.Load()
	if first == nil {
		t.Fatal("no shell cached after a page")
	}
	for i := 0; i < 100; i++ {
		statsLine(t, ts, i%2 == 0)
	}
	if srv.shell.Load() != first {
		t.Error("the shell was rendered again without a commit")
	}
}

// An object-only batch leaves Generation alone but moves the object
// count: the next page shows it.
func TestPageShellSeesObjectOnlyBatch(t *testing.T) {
	sys := testSystem(t)
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)
	before := statsLine(t, ts, false)
	repo := sys.Repo()
	gen := repo.Generation()
	ll := repo.SourceByName("LocusLink")
	if _, _, err := repo.EnsureObjects(ll.ID, []gam.ObjectSpec{{Accession: "9999"}}); err != nil {
		t.Fatal(err)
	}
	if repo.Generation() != gen {
		t.Fatal("an object-only batch bumped Generation; the test no longer isolates the publish counter")
	}
	st, err := sys.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []bool{false, true} {
		if got := statsLine(t, ts, query); got != st.String() || got == before {
			t.Errorf("stats line after an object-only batch = %q, want %q (before: %q)", got, st.String(), before)
		}
	}
}

// Pages served beside committing writers show a stats line some committed
// state had, and once the writer is done, the last one: the shell's tag is
// loaded before the catalog it renders, and every commit moves it.
func TestPageShellConcurrentWithCommits(t *testing.T) {
	sys := testSystem(t)
	ts := httptest.NewServer(New(sys))
	t.Cleanup(ts.Close)
	repo := sys.Repo()
	var mu sync.Mutex
	committed := map[string]bool{}
	record := func() {
		st, err := sys.Stats()
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		committed[st.String()] = true
		mu.Unlock()
	}
	record()

	const commits, readers = 41, 2 // the last commit is object-only
	var observed sync.Map
	var writer, rw sync.WaitGroup
	started := make(chan struct{}, readers)
	done := make(chan struct{})
	for i := 0; i < readers; i++ {
		rw.Add(1)
		go func(i int) {
			defer rw.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				observed.Store(statsLine(t, ts, i%2 == 0), true)
				if n == 0 {
					started <- struct{}{}
				}
			}
		}(i)
	}
	for i := 0; i < readers; i++ {
		<-started
	}
	writer.Add(1)
	go func() {
		defer writer.Done()
		ll := repo.SourceByName("LocusLink")
		for i := 0; i < commits; i++ {
			var err error
			if i%2 == 0 { // object-only
				_, _, err = repo.EnsureObjects(ll.ID, []gam.ObjectSpec{{Accession: fmt.Sprintf("c%03d", i)}})
			} else { // a new source with a mapping
				err = repo.Atomic(func(b *gam.Batch) error {
					src, _, err := b.EnsureSource(gam.Source{Name: fmt.Sprintf("S%03d", i)})
					if err != nil {
						return err
					}
					ids, _, err := b.EnsureObjects(src.ID, []gam.ObjectSpec{{Accession: "x"}})
					if err != nil {
						return err
					}
					lls, _, err := b.EnsureObjects(ll.ID, []gam.ObjectSpec{{Accession: "353"}})
					if err != nil {
						return err
					}
					rel, _, err := b.EnsureSourceRel(ll.ID, src.ID, gam.RelFact)
					if err != nil {
						return err
					}
					_, err = b.AddAssociations(rel, []gam.Assoc{{Object1: lls[0], Object2: ids[0]}}, false)
					return err
				})
			}
			if err != nil {
				t.Error(err)
				return
			}
			record()
		}
	}()
	writer.Wait()
	close(done)
	rw.Wait()
	st, err := sys.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []bool{false, true} {
		if got := statsLine(t, ts, query); got != st.String() {
			t.Errorf("after the last commit a page shows %q, want %q", got, st.String())
		}
	}
	n := 0
	observed.Range(func(k, _ any) bool {
		n++
		if line := k.(string); !committed[line] {
			t.Errorf("a page showed %q, which no commit produced", line)
		}
		return true
	})
	if n == 0 {
		t.Fatal("no page observed")
	}
}
