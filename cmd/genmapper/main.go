// Command genmapper serves the interactive query interface of the paper's
// Figure 6 over HTTP: query specification, annotation views, object
// drill-down, path search, and export.
//
// Usage:
//
//	genmapper -data-dir ./data -addr :8080   # durable: WAL + checkpoints
//	genmapper -db gam.snap -addr :8080       # read from a static snapshot
//	genmapper -demo -addr :8080              # small built-in synthetic universe
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"genmapper"
	"genmapper/internal/server"
	"genmapper/internal/wal"
)

// Server timeouts bound how long a client may hold a connection without
// sending a request. There is deliberately no write timeout: an /export
// streams a whole source and may take longer than any fixed bound.
const (
	readHeaderTimeout = 10 * time.Second // request line and headers
	readTimeout       = time.Minute      // the whole request, body included
	idleTimeout       = 2 * time.Minute  // between keep-alive requests
)

func main() {
	var (
		dbPath  = flag.String("db", "gam.snap", "database snapshot file (ignored when -data-dir is set)")
		dataDir = flag.String("data-dir", "", "durable data directory (WAL + checkpoints); writes survive crashes")
		fsync   = flag.String("fsync", "group", "WAL fsync policy: always, group, off (with -data-dir)")
		addr    = flag.String("addr", ":8080", "listen address")
		demo    = flag.Bool("demo", false, "serve a small synthetic universe instead of a snapshot")
		seed    = flag.Int64("seed", 1, "demo universe seed")
		scale   = flag.Float64("scale", 0.002, "demo universe scale")
		pprofF  = flag.Bool("pprof", false, "expose net/http/pprof endpoints under /debug/pprof/")
	)
	flag.Parse()

	var sys *genmapper.System
	var err error
	switch {
	case *dataDir != "":
		var policy wal.SyncPolicy
		if policy, err = wal.ParseSyncPolicy(*fsync); err == nil {
			log.Printf("opening durable data dir %s (fsync=%s)...", *dataDir, policy)
			sys, err = genmapper.OpenDurable(*dataDir, genmapper.DurableOptions{Sync: policy})
		}
		if err == nil {
			ws := sys.SQLWALStats()
			log.Printf("recovered: %d log records replayed, checkpoint LSN %d, %d torn tails truncated",
				ws.RecoveredRecords, ws.CheckpointLSN, ws.TornTailTruncations)
			defer sys.Close()
		}
	case *demo:
		sys, err = genmapper.New()
		if err == nil {
			u := genmapper.NewUniverse(genmapper.GenConfig{Seed: *seed, Scale: *scale})
			log.Printf("importing demo universe (seed=%d scale=%g)...", *seed, *scale)
			_, err = sys.ImportUniverse(u, genmapper.ImportOptions{DeriveSubsumed: true}, nil)
		}
	default:
		sys, err = genmapper.LoadSnapshot(*dbPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "genmapper:", err)
		os.Exit(1)
	}
	st, err := sys.Stats()
	if err != nil {
		fmt.Fprintln(os.Stderr, "genmapper:", err)
		os.Exit(1)
	}
	if *pprofF {
		log.Printf("pprof endpoints enabled at /debug/pprof/")
	}
	log.Printf("serving %s on %s", st, *addr)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.NewWithConfig(sys, server.Config{EnablePprof: *pprofF}),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	if err := srv.ListenAndServe(); err != nil {
		log.Fatal(err)
	}
}
