package nn

import "sync"

// Replica is one reusable working copy of a model: a clone — which is where
// the layer arenas a training pass faults in live, several megabytes for the
// paper's models against a few hundred kilobytes of parameters — plus the
// state its borrower keys on that clone.
type Replica struct {
	Model *Sequential
	// Aux travels with Model and belongs to whoever borrows from the list:
	// internal/fl keeps its Trainer here, whose optimizer buffers are
	// indexed by Model's *Param.
	Aux any
}

// Replicas is the free list of working copies of one model. It is anchored
// on that model (Sequential.Replicas), so everything built from one template
// pointer — a federation's clients and attackers — draws from one list, and
// two templates never share: per-layer L2, the backend and the prune masks
// ride on the clone, which a list keyed by shape would mix up.
//
// A replica is created only when none is free, so the list grows to the
// largest number ever borrowed at once — the worker count or the streaming
// window, not the population — and stays there; Get returns the most
// recently returned replica, the one whose buffers are still in cache.
//
// The borrower owns the replica between Get and Put and must return it the
// way it got it in everything but parameter values: no prune mask added, no
// flag changed. A replica that is not put back is simply collected.
type Replicas struct {
	// proto is the model as it was when the list was anchored; replicas
	// are cloned from it, never from the live template, which its owner
	// may go on to train or prune.
	proto *Sequential

	mu   sync.Mutex
	free []*Replica
	made int
}

// Replicas returns the model's free list of working copies, snapshotting the
// model's architecture, flags and masks on the first call.
func (m *Sequential) Replicas() *Replicas {
	m.replicasOnce.Do(func() { m.replicas = &Replicas{proto: m.Clone()} })
	return m.replicas
}

// Get borrows a replica, cloning a new one only when none is free. Its
// parameter values are whatever the last borrower left: install your own.
func (r *Replicas) Get() *Replica {
	r.mu.Lock()
	if n := len(r.free); n > 0 {
		rep := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		r.mu.Unlock()
		return rep
	}
	r.made++
	r.mu.Unlock()
	return &Replica{Model: r.proto.Clone()}
}

// Put returns a borrowed replica to the list.
func (r *Replicas) Put(rep *Replica) {
	r.mu.Lock()
	r.free = append(r.free, rep)
	r.mu.Unlock()
}

// Made reports how many replicas the list has created so far.
func (r *Replicas) Made() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.made
}
