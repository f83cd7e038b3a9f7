// Stub of the real genmapper/internal/gam package: its two registered
// counters, their accessors, and a publish step that bumps the publish
// counter directly instead of through its accessor.
package gam

import "sync/atomic"

type Repo struct {
	gen       atomic.Uint64
	published atomic.Uint64
}

func (r *Repo) bumpGen() { r.gen.Add(1) }

// bumpPublished is the one registered accessor for Repo.published.
func (r *Repo) bumpPublished() { r.published.Add(1) }

func (r *Repo) publish() {
	r.published.Add(1) // want `Repo\.published is mutated outside its accessor bumpPublished`
}

func (r *Repo) reload() {
	r.bumpGen()
	r.bumpPublished()
	r.gen.Add(1) // want `Repo\.gen is mutated outside its accessor bumpGen`
}

func (r *Repo) Published() uint64 { return r.published.Load() }
