package controlplane

import "fmt"

// Limits bound what admission accepts. Zero fields mean the default.
// Limits can be reconfigured at runtime through a ControlLimits
// request — no redeploy.
type Limits struct {
	// MaxSensors and MaxTargets cap one snapshot's size.
	MaxSensors int `json:"max_sensors,omitempty"`
	MaxTargets int `json:"max_targets,omitempty"`
	// MaxDeployments caps admitted snapshots per tenant.
	MaxDeployments int `json:"max_deployments,omitempty"`
}

// Default admission limits.
const (
	DefaultMaxSensors     = 1 << 20
	DefaultMaxTargets     = 1 << 20
	DefaultMaxDeployments = 1 << 10
)

// merge returns l with u's positive fields: the change a ControlLimits
// request makes, and the defaults a Config's limits fill.
func (l Limits) merge(u Limits) Limits {
	if u.MaxSensors > 0 {
		l.MaxSensors = u.MaxSensors
	}
	if u.MaxTargets > 0 {
		l.MaxTargets = u.MaxTargets
	}
	if u.MaxDeployments > 0 {
		l.MaxDeployments = u.MaxDeployments
	}
	return l
}

// admit runs the fixed control-plane composition order for a submitted
// snapshot:
//
//  1. registry   — parent lineage must resolve (provenance first);
//  2. normalizer — canonicalize + validate the spec, fingerprint it;
//  3. admission  — idempotency/conflict against the registry, resource
//     limits, engine construction, then registration.
//
// Every decision is a deterministic function of (request, registry
// state, limits): resubmitting a snapshot yields the same fingerprint
// and the same decision, and a rejection at any stage leaves no
// registry residue — registration, the final step, decides again and
// logs the canonical bytes the fingerprint hashes before it publishes.
// A resubmit of a published spec is answered here, without the log
// lock; a new entry is registered with the freshly built planner.
func (r *Registry) admit(tenant string, req *SubmitRequest) (*deployment, bool, *WireError) {
	// Stage 1 — registry: provenance must resolve before anything else.
	if req.Parent != "" {
		if _, ok := r.get(tenant, req.Parent); !ok {
			return nil, false, &WireError{Code: CodeNotFound,
				Message: fmt.Sprintf("parent snapshot %q not registered for tenant", req.Parent)}
		}
	}

	// Stage 2 — normalizer/validator: canonical spec and identity.
	spec, err := Normalize(req.Spec)
	if err != nil {
		return nil, false, &WireError{Code: CodeRejected, Message: err.Error()}
	}
	canonical, fp, err := canonicalFingerprint(&spec)
	if err != nil {
		return nil, false, &WireError{Code: CodeInternal,
			Message: fmt.Sprintf("controlplane: fingerprinting spec: %v", err)}
	}

	// Stage 3 — admission: idempotency and limits, checked here so a
	// doomed submit builds no planner, then construction and
	// registration, which decides both again.
	rec := SubmitRecord{Tenant: tenant, Name: req.Name, Parent: req.Parent, Fingerprint: fp, Spec: spec}
	r.mu.RLock()
	existing, werr := r.decide(&rec)
	r.mu.RUnlock()
	if werr != nil {
		return nil, false, werr
	}
	if existing != nil {
		return existing, true, nil
	}
	planner, err := BuildPlanner(spec)
	if err != nil {
		return nil, false, &WireError{Code: CodeRejected, Message: err.Error()}
	}
	return r.register(&deployment{rec: rec, planner: planner}, canonical)
}

// parentConflict rejects resubmitting a registered spec under another
// parent: lineage is never silently rewritten.
func parentConflict(existing *deployment, parent string) *WireError {
	if existing.rec.Parent == parent {
		return nil
	}
	return &WireError{Code: CodeConflict,
		Message: fmt.Sprintf("snapshot %s already registered with parent %q", existing.rec.Fingerprint, existing.rec.Parent)}
}

// overLimit reports the first limit a new snapshot of the tenant would
// break. The caller holds r.mu.
func (r *Registry) overLimit(tenant string, spec *DeploymentSpec) *WireError {
	if n := len(spec.Sensors); n > r.limits.MaxSensors {
		return &WireError{Code: CodeRejected,
			Message: fmt.Sprintf("%d sensors exceeds limit %d", n, r.limits.MaxSensors)}
	}
	if m := len(spec.Targets); m > r.limits.MaxTargets {
		return &WireError{Code: CodeRejected,
			Message: fmt.Sprintf("%d targets exceeds limit %d", m, r.limits.MaxTargets)}
	}
	if len(r.tenants[tenant]) >= r.limits.MaxDeployments {
		return &WireError{Code: CodeRejected,
			Message: fmt.Sprintf("tenant at deployment limit %d", r.limits.MaxDeployments)}
	}
	return nil
}
