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
// collide with) another's. Its lock also guards the admission sequence
// counter and the limits, so admission decides a registration (the
// per-tenant cap included) in one critical section. The lock is never
// held across spec normalization, planner construction or an entry's
// own lock. Safe for concurrent use.
type Registry struct {
	mu      sync.RWMutex
	tenants map[string]map[string]*deployment
	seq     uint64
	limits  Limits
}

// newRegistry returns an empty registry under the given limits.
func newRegistry(limits Limits) *Registry {
	return &Registry{tenants: make(map[string]map[string]*deployment), limits: limits.withDefaults()}
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
// current values. Returns the effective limits.
func (r *Registry) SetLimits(l Limits) Limits {
	r.mu.Lock()
	defer r.mu.Unlock()
	if l.MaxSensors > 0 {
		r.limits.MaxSensors = l.MaxSensors
	}
	if l.MaxTargets > 0 {
		r.limits.MaxTargets = l.MaxTargets
	}
	if l.MaxDeployments > 0 {
		r.limits.MaxDeployments = l.MaxDeployments
	}
	return r.limits
}

// register installs d and stamps its admission sequence number: the
// final admission step, so rejected snapshots leave no registry
// residue. Registration is idempotent on fingerprint: when a concurrent
// identical submit won the race, the registered entry is returned with
// raced set (or a conflict when its parent differs). Otherwise the
// limits decide, under the same lock that inserts, so concurrent
// distinct submits never overrun the per-tenant cap.
func (r *Registry) register(d *deployment) (registered *deployment, raced bool, werr *WireError) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.tenants[d.rec.Tenant][d.rec.Fingerprint]; ok {
		if werr := parentConflict(existing, d.rec.Parent); werr != nil {
			return nil, false, werr
		}
		return existing, true, nil
	}
	if werr := r.overLimit(d.rec.Tenant, &d.rec.Spec); werr != nil {
		return nil, false, werr
	}
	byFP := r.tenants[d.rec.Tenant]
	if byFP == nil {
		byFP = make(map[string]*deployment)
		r.tenants[d.rec.Tenant] = byFP
	}
	r.seq++
	d.rec.Seq = r.seq
	byFP[d.rec.Fingerprint] = d
	return d, false, nil
}

// unregister removes an entry whose durable logging failed, so the
// in-memory state never claims what the WAL does not hold; its serving
// state and watchers go with it. The admission sequence counter is not
// rewound — audit numbers are consumed, never reissued.
func (r *Registry) unregister(d *deployment) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if byFP := r.tenants[d.rec.Tenant]; byFP[d.rec.Fingerprint] == d {
		delete(byFP, d.rec.Fingerprint)
	}
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
