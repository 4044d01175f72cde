package controlplane

import (
	"sort"
	"sync"

	"cool"
)

// deployment is one entry of the registry: an admitted snapshot, its
// serving state and its watchers. The snapshot never changes once
// registered: reconfiguration is a new snapshot with the old one as
// Parent, so the registry's lineage chain is the full provenance
// record for replay and audit. Its mutex serializes the serving state.
type deployment struct {
	// rec is the snapshot exactly as its WAL record holds it, with the
	// normalized spec. Immutable once registered; callers must not
	// mutate it.
	rec SubmitRecord

	mu sync.Mutex
	// planner is built at admission; an entry replayed from the WAL
	// builds it on first use (ensurePlanner).
	planner   *cool.Planner
	inc       *cool.Incremental
	suspended bool
	// objective is the last-planned objective ("" until the first
	// plan/session establishes one); surfaced by query/list.
	objective string
	// events counts successful plan/replan events; pushed WatchEvents
	// carry it as their per-deployment Seq.
	events uint64
	// watchers are the connections subscribed to the push stream.
	watchers map[*connState]struct{}
}

// ensurePlanner builds a replayed entry's planner. Deterministic: it is
// the construction admission performs. Callers hold d.mu.
func (d *deployment) ensurePlanner() error {
	if d.planner != nil {
		return nil
	}
	planner, err := BuildPlanner(d.rec.Spec)
	if err != nil {
		return err
	}
	d.planner = planner
	return nil
}

// Registry is the control plane's one table: every admitted
// deployment, per tenant, keyed by fingerprint. Tenants are fully
// isolated — one tenant's snapshots are invisible to (and cannot
// collide with) another's. It is also the one place that decides, logs
// and publishes every change the WAL records: register and SetLimits
// hold the log lock while they decide the change, append and sync its
// record through the attached store, and only then publish it under the
// table lock. So nothing is visible before its record is durable, and
// the log order is the publish order. The log lock is taken before the
// table lock, never after; the table lock is never held across a WAL
// append, spec normalization, planner construction or an entry's own
// lock. Safe for concurrent use.
type Registry struct {
	// logMu, the log lock, serializes the changes the WAL records from
	// decision to publication and guards store (nil serving in memory).
	logMu sync.Mutex
	store *Store

	// mu, the table lock, guards the table, the Seq counter and limits.
	mu      sync.RWMutex
	tenants map[string]map[string]*deployment
	seq     uint64
	limits  Limits
}

// newRegistry returns an empty registry under the given limits.
func newRegistry(limits Limits) *Registry {
	defaults := Limits{MaxSensors: DefaultMaxSensors, MaxTargets: DefaultMaxTargets, MaxDeployments: DefaultMaxDeployments}
	return &Registry{tenants: make(map[string]map[string]*deployment), limits: defaults.merge(limits)}
}

// get returns the tenant's deployment with the given fingerprint.
func (r *Registry) get(tenant, fingerprint string) (*deployment, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.tenants[tenant][fingerprint]
	return d, ok
}

// Limits returns the current admission limits.
func (r *Registry) Limits() Limits {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.limits
}

// SetLimits reconfigures the limits at runtime; zero fields keep their
// current values. It logs the effective limits before it publishes and
// returns them, so no submit is decided by limits the log does not
// hold; after a storage error the limits are unchanged.
func (r *Registry) SetLimits(l Limits) (Limits, error) {
	r.logMu.Lock()
	defer r.logMu.Unlock()
	eff := r.Limits().merge(l)
	if r.store != nil {
		// The record holds the effective (fully non-zero) limits, so
		// replaying it restores them exactly.
		if err := r.store.AppendLimits(eff); err != nil {
			return Limits{}, err
		}
	}
	r.mu.Lock()
	r.limits = eff
	r.mu.Unlock()
	return eff, nil
}

// decide reports the registered entry a submit resolves to (resubmit,
// or a conflict when its parent differs), or the limit a new snapshot
// would break. The caller holds r.mu.
func (r *Registry) decide(rec *SubmitRecord) (*deployment, *WireError) {
	if existing, ok := r.tenants[rec.Tenant][rec.Fingerprint]; ok {
		return existing, parentConflict(existing, rec.Parent)
	}
	return nil, r.overLimit(rec.Tenant, &rec.Spec)
}

// register decides, logs and publishes one admission, the final
// admission step: under the log lock it decides idempotency and the
// limits again and stamps the next Seq, appends and syncs the record
// around the spec's canonical bytes, and only then inserts the entry. A
// submit that raced an identical one waits for that one's sync and gets
// its entry (raced), or storage when that append failed and stopped the
// store. A failed append publishes nothing.
func (r *Registry) register(d *deployment, canonical []byte) (registered *deployment, raced bool, werr *WireError) {
	r.logMu.Lock()
	defer r.logMu.Unlock()
	r.mu.RLock()
	existing, werr := r.decide(&d.rec)
	seq := r.seq + 1
	r.mu.RUnlock()
	if werr != nil {
		return nil, false, werr
	}
	if existing != nil {
		return existing, true, nil
	}
	d.rec.Seq = seq
	if r.store != nil {
		if err := r.store.appendSubmit(&d.rec, canonical); err != nil {
			return nil, false, &WireError{Code: CodeStorage, Message: err.Error()}
		}
	}
	r.mu.Lock()
	r.insert(d)
	r.mu.Unlock()
	return d, false, nil
}

// insert publishes d and raises the counter to its Seq. The caller
// holds r.mu.
func (r *Registry) insert(d *deployment) {
	byFP := r.tenants[d.rec.Tenant]
	if byFP == nil {
		byFP = make(map[string]*deployment)
		r.tenants[d.rec.Tenant] = byFP
	}
	byFP[d.rec.Fingerprint] = d
	r.seq = max(r.seq, d.rec.Seq)
}

// useStore attaches the store every later change is logged to.
func (r *Registry) useStore(st *Store) {
	r.logMu.Lock()
	r.store = st
	r.logMu.Unlock()
}

// closeStore closes the attached store once the append in flight, if
// any, has finished. The store stays attached, so a change decided
// afterwards gets storage instead of being published unlogged.
func (r *Registry) closeStore() (err error) {
	r.logMu.Lock()
	defer r.logMu.Unlock()
	if r.store != nil {
		err = r.store.Close()
	}
	return err
}

// List returns the tenant's snapshots in admission order, each with its
// deployment's last-planned objective (empty until a plan establishes
// one, keeping pre-objective encodings byte-identical). The entries are
// copied under the table's read lock, which is released before each
// objective is read under its entry's own lock.
func (r *Registry) List(tenant string) []SnapshotInfo {
	r.mu.RLock()
	deps := make([]*deployment, 0, len(r.tenants[tenant]))
	for _, d := range r.tenants[tenant] {
		deps = append(deps, d)
	}
	r.mu.RUnlock()
	sort.Slice(deps, func(i, j int) bool { return deps[i].rec.Seq < deps[j].rec.Seq })
	out := make([]SnapshotInfo, len(deps))
	for i, d := range deps {
		d.mu.Lock()
		objective := d.objective
		d.mu.Unlock()
		out[i] = SnapshotInfo{
			Fingerprint: d.rec.Fingerprint,
			Name:        d.rec.Name,
			Parent:      d.rec.Parent,
			Seq:         d.rec.Seq,
			Sensors:     len(d.rec.Spec.Sensors),
			Targets:     len(d.rec.Spec.Targets),
			Objective:   objective,
		}
	}
	return out
}
