package controlplane

import (
	"fmt"
	"sync"

	"cool"
)

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

// withDefaults fills zero fields.
func (l Limits) withDefaults() Limits {
	if l.MaxSensors <= 0 {
		l.MaxSensors = DefaultMaxSensors
	}
	if l.MaxTargets <= 0 {
		l.MaxTargets = DefaultMaxTargets
	}
	if l.MaxDeployments <= 0 {
		l.MaxDeployments = DefaultMaxDeployments
	}
	return l
}

// Admission runs the fixed control-plane composition order for a
// submitted snapshot:
//
//  1. registry   — parent lineage must resolve (provenance first);
//  2. normalizer — canonicalize + validate the spec, fingerprint it;
//  3. admission  — idempotency/conflict against the registry, resource
//     limits, engine construction, then registration.
//
// Every decision is a deterministic function of (request, registry
// state, limits): resubmitting a snapshot yields the same fingerprint
// and the same decision, and a rejection at any stage leaves no
// registry residue — registration is the final step.
type Admission struct {
	reg *Registry

	mu     sync.Mutex
	limits Limits
}

// NewAdmission builds the admission stage over a registry.
func NewAdmission(reg *Registry, limits Limits) *Admission {
	return &Admission{reg: reg, limits: limits.withDefaults()}
}

// Limits returns the current admission limits.
func (a *Admission) Limits() Limits {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.limits
}

// SetLimits reconfigures the limits at runtime; zero fields keep their
// current values. Returns the effective limits.
func (a *Admission) SetLimits(l Limits) Limits {
	a.mu.Lock()
	defer a.mu.Unlock()
	if l.MaxSensors > 0 {
		a.limits.MaxSensors = l.MaxSensors
	}
	if l.MaxTargets > 0 {
		a.limits.MaxTargets = l.MaxTargets
	}
	if l.MaxDeployments > 0 {
		a.limits.MaxDeployments = l.MaxDeployments
	}
	return a.limits
}

// Admit runs the composition order on one submit request. On success
// the snapshot is registered (or was already — Resubmitted), and the
// freshly built planner is returned for the serving layer's deployment
// handle (nil when resubmitted and the caller already holds one).
func (a *Admission) Admit(tenant string, req *SubmitRequest) (*Snapshot, *cool.Planner, bool, *WireError) {
	snap, planner, resubmitted, _, werr := a.admit(tenant, req)
	return snap, planner, resubmitted, werr
}

// admit is Admit that also returns the normalized spec's canonical
// bytes, the ones its fingerprint hashes, which a fresh registration
// logs as its WAL record's spec.
func (a *Admission) admit(tenant string, req *SubmitRequest) (*Snapshot, *cool.Planner, bool, []byte, *WireError) {
	// Stage 1 — registry: provenance must resolve before anything else.
	if req.Parent != "" {
		if _, ok := a.reg.Get(tenant, req.Parent); !ok {
			return nil, nil, false, nil, &WireError{Code: CodeNotFound,
				Message: fmt.Sprintf("parent snapshot %q not registered for tenant", req.Parent)}
		}
	}

	// Stage 2 — normalizer/validator: canonical spec and identity.
	spec, err := Normalize(req.Spec)
	if err != nil {
		return nil, nil, false, nil, &WireError{Code: CodeRejected, Message: err.Error()}
	}
	canonical, fp, err := canonicalFingerprint(&spec)
	if err != nil {
		return nil, nil, false, nil, &WireError{Code: CodeInternal,
			Message: fmt.Sprintf("controlplane: fingerprinting spec: %v", err)}
	}

	// Stage 3 — admission: idempotency, limits, construction, register.
	if existing, ok := a.reg.Get(tenant, fp); ok {
		if existing.Parent != req.Parent {
			return nil, nil, false, nil, &WireError{Code: CodeConflict,
				Message: fmt.Sprintf("snapshot %s already registered with parent %q", fp, existing.Parent)}
		}
		return existing, nil, true, nil, nil
	}
	limits := a.Limits()
	if n := len(spec.Sensors); n > limits.MaxSensors {
		return nil, nil, false, nil, &WireError{Code: CodeRejected,
			Message: fmt.Sprintf("%d sensors exceeds limit %d", n, limits.MaxSensors)}
	}
	if m := len(spec.Targets); m > limits.MaxTargets {
		return nil, nil, false, nil, &WireError{Code: CodeRejected,
			Message: fmt.Sprintf("%d targets exceeds limit %d", m, limits.MaxTargets)}
	}
	if c := a.reg.Count(tenant); c >= limits.MaxDeployments {
		return nil, nil, false, nil, &WireError{Code: CodeRejected,
			Message: fmt.Sprintf("tenant at deployment limit %d", limits.MaxDeployments)}
	}
	planner, err := BuildPlanner(spec)
	if err != nil {
		return nil, nil, false, nil, &WireError{Code: CodeRejected, Message: err.Error()}
	}
	snap := &Snapshot{Tenant: tenant, Name: req.Name, Fingerprint: fp, Parent: req.Parent, Spec: spec}
	registered, raced := a.reg.register(snap)
	return registered, planner, raced, canonical, nil
}
