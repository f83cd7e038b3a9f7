package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"genmapper"
	"genmapper/internal/gen"
	"genmapper/internal/server"
	"genmapper/internal/wal"
)

// importOpts is how every system of the benchmark imports: with the
// Subsumed closure of network sources, as the paper's deployment does.
var importOpts = genmapper.ImportOptions{DeriveSubsumed: true}

// env is one set-up system under test with its request list.
type env struct {
	cfg  config
	uni  *gen.Universe
	sys  *genmapper.System
	w    *world
	plan *plan
	dir  string // data directory of a durable system, "" in memory
}

// scratchDir returns a fresh directory under the output directory; every
// file the benchmark writes lives there.
func scratchDir(cfg config, name string) (string, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.out, name+"-")
}

// setUp builds the system a request workload runs against: universe
// generation, import, request list, and priming of the executor cache for
// the warm workloads. view.update runs on a durable MVCC system.
func setUp(cfg config, workload string) (*env, error) {
	e := &env{cfg: cfg, uni: gen.NewUniverse(gen.Config{Seed: cfg.seed, Scale: cfg.scale})}
	var err error
	if workload == wlViewUpdate {
		if e.dir, err = scratchDir(cfg, "update"); err != nil {
			return nil, err
		}
		e.sys, err = genmapper.OpenDurable(e.dir, genmapper.DurableOptions{Sync: wal.SyncGroup})
		if err == nil {
			e.sys.SetMVCC(true)
		}
	} else {
		e.sys, err = genmapper.New()
	}
	if err != nil {
		return nil, err
	}
	if _, err := e.sys.ImportUniverse(e.uni, importOpts, nil); err != nil {
		e.close()
		return nil, err
	}
	e.w = newWorld(e.uni, cfg.scale, e.sys)
	if e.plan, err = planFor(workload, e.w, cfg.seed); err != nil {
		e.close()
		return nil, err
	}
	if workload != wlExportCold {
		if err := e.prime(); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// printSizing records the universe and the request list in the output.
func (e *env) printSizing() {
	if st, err := e.sys.Stats(); err == nil {
		fmt.Println("# universe:", st)
	}
	for _, n := range e.plan.Notes {
		fmt.Println("#", n)
	}
}

// prime runs every distinct request once below the server so the executor
// holds every route before timing starts.
func (e *env) prime() error {
	for _, r := range e.plan.Requests {
		if _, err := e.sys.AnnotationView(r.Query); err != nil {
			return fmt.Errorf("prime %s: %w", r.Query.Source, err)
		}
	}
	return nil
}

// close releases the system and deletes its data directory.
func (e *env) close() {
	if e.sys != nil {
		//gmlint:ignore errdrop the run's result is already decided; a failed close of a scratch system changes nothing
		_ = e.sys.Close()
		e.sys = nil
	}
	if e.dir != "" {
		//gmlint:ignore errdrop a scratch directory that cannot be removed is left for the next run's cleanup; the result stands
		_ = os.RemoveAll(e.dir)
	}
}

// timedSetUps runs set-up n times, keeps the last result and returns the
// median duration in seconds.
func timedSetUps[T any](n int, setUp func() (T, error), discard func(T)) (T, float64, error) {
	var last T
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(last)
		}
		start := time.Now()
		v, err := setUp()
		if err != nil {
			return last, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		last = v
	}
	return last, median(secs), nil
}

// heapLiveMB is HeapAlloc after a forced collection.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// frontDoor serves a system through the real handler on a loopback
// listener in this process.
type frontDoor struct {
	srv    *http.Server
	done   chan error
	base   string
	client *http.Client
}

func openFrontDoor(sys *genmapper.System, clients int) (*frontDoor, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fd := &frontDoor{
		srv:  &http.Server{Handler: server.New(sys)},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        clients,
			MaxIdleConnsPerHost: clients,
		}},
	}
	go func() { fd.done <- fd.srv.Serve(ln) }()
	return fd, nil
}

// close stops the server and waits until its accept loop has returned.
func (fd *frontDoor) close() {
	fd.client.CloseIdleConnections()
	//gmlint:ignore errdrop closing the listener of a finished run; Serve's return below is what is waited for
	_ = fd.srv.Close()
	<-fd.done
}
