package controlplane

import (
	"encoding/json"
	"fmt"

	"cool"
)

// ErrorCode classifies a typed error frame. Codes are part of the wire
// contract (pinned by the golden corpus); peers dispatch on the code,
// the message is for humans.
type ErrorCode string

// Wire error codes.
const (
	// CodeBadVersion: version negotiation failed or a frame carried an
	// unsupported version byte.
	CodeBadVersion ErrorCode = "bad-version"
	// CodeBadFrame: the frame could not be decoded (truncated,
	// oversize, unknown type, malformed payload).
	CodeBadFrame ErrorCode = "bad-frame"
	// CodeBadRequest: the request envelope was well-formed JSON but
	// semantically invalid (unknown op, missing body, bad arguments).
	CodeBadRequest ErrorCode = "bad-request"
	// CodeNotFound: the referenced tenant/fingerprint has no admitted
	// snapshot.
	CodeNotFound ErrorCode = "not-found"
	// CodeRejected: admission deterministically rejected the snapshot
	// (validation failure or resource limits). No registry residue.
	CodeRejected ErrorCode = "rejected"
	// CodeConflict: the snapshot is already registered with different
	// provenance (same fingerprint, different parent).
	CodeConflict ErrorCode = "conflict"
	// CodeSuspended: the deployment exists but serving is stopped;
	// resume it with a control request.
	CodeSuspended ErrorCode = "suspended"
	// CodeInternal: the engine failed; the message carries the cause.
	CodeInternal ErrorCode = "internal"
	// CodeStorage: the durability layer failed to log the event (WAL
	// append or checkpoint error) — the mutation was NOT admitted, so a
	// restart cannot diverge from what the client was told.
	CodeStorage ErrorCode = "storage"
)

// WireError is the payload of a FrameError. It implements error so the
// client can surface server-side failures directly.
type WireError struct {
	Code    ErrorCode `json:"code"`
	Message string    `json:"message"`
}

// Error implements error.
func (e *WireError) Error() string {
	return fmt.Sprintf("controlplane: %s: %s", e.Code, e.Message)
}

// Hello opens a session (FrameHello payload).
type Hello struct {
	// MaxVersion is the highest protocol version the client speaks;
	// the server answers with the negotiated session version.
	MaxVersion byte `json:"max_version"`
	// Client names the peer for logs ("coolctl/1.0").
	Client string `json:"client,omitempty"`
}

// HelloAck completes the handshake (FrameHelloAck payload).
type HelloAck struct {
	// Version is the negotiated session version.
	Version byte `json:"version"`
	// Server names the daemon build.
	Server string `json:"server"`
}

// Op selects the request kind inside a Request envelope.
type Op string

// Request operations.
const (
	OpSubmit  Op = "submit"
	OpPlan    Op = "plan"
	OpReplan  Op = "replan"
	OpQuery   Op = "query"
	OpList    Op = "list"
	OpControl Op = "control"
	OpWatch   Op = "watch"
)

// SensorSpec is one sensor of a deployment spec: a disk footprint at
// (X, Y) with the given sensing radius. Sensor IDs are ordinal in
// slice order, matching cool.NewNetwork.
type SensorSpec struct {
	X     float64 `json:"x"`
	Y     float64 `json:"y"`
	Range float64 `json:"range"`
}

// TargetSpec is one monitored target. Weight defaults to 1.
type TargetSpec struct {
	X      float64 `json:"x"`
	Y      float64 `json:"y"`
	Weight float64 `json:"weight,omitempty"`
}

// Utility kinds accepted by DeploymentSpec.Utility.
const (
	// UtilityTargets is weighted target coverage
	// (cool.NewTargetCountUtility). The default.
	UtilityTargets = "targets"
	// UtilityDetection is the probabilistic detection utility under a
	// fixed per-link probability (cool.NewDetectionUtility with
	// cool.FixedProb(DetectProb)).
	UtilityDetection = "detection"
)

// DeploymentSpec is the wire description of one deployment: the
// geometry, the utility model and the charging ratio. Its normalized
// form (see Normalize) is the unit of identity — the snapshot
// fingerprint is a digest of the normalized spec, so two specs that
// normalize equal are the same snapshot.
type DeploymentSpec struct {
	// Rho is the charging ratio ρ = Tr/Td; ρ or 1/ρ must be integral
	// (cool.PeriodFromRho).
	Rho float64 `json:"rho"`
	// Utility selects the model: UtilityTargets (default) or
	// UtilityDetection.
	Utility string `json:"utility,omitempty"`
	// DetectProb is the fixed detection probability for
	// UtilityDetection (in (0, 1]); must be 0 for UtilityTargets.
	DetectProb float64      `json:"detect_prob,omitempty"`
	Sensors    []SensorSpec `json:"sensors"`
	Targets    []TargetSpec `json:"targets"`
}

// SubmitRequest offers a deployment snapshot for admission.
type SubmitRequest struct {
	// Name is a human label recorded in the registry; it is provenance
	// metadata, not identity — the fingerprint covers the spec only.
	Name string `json:"name,omitempty"`
	// Parent is the fingerprint of the snapshot this one derives from
	// (lineage for replay/audit); it must already be registered for
	// the tenant, or empty for a root snapshot.
	Parent string         `json:"parent,omitempty"`
	Spec   DeploymentSpec `json:"spec"`
}

// SubmitResponse reports the deterministic admission decision.
type SubmitResponse struct {
	// Fingerprint identifies the admitted snapshot.
	Fingerprint string `json:"fingerprint"`
	// Seq is the registry admission sequence number (audit order).
	Seq uint64 `json:"seq"`
	// Resubmitted reports an idempotent re-admission of an already
	// registered snapshot.
	Resubmitted bool `json:"resubmitted,omitempty"`
	// Sensors and Targets echo the normalized sizes.
	Sensors int `json:"sensors"`
	Targets int `json:"targets"`
}

// Plan engines accepted by PlanRequest.Engine. Under the default
// utility objective all produce the same schedule bits ("incremental"
// initializes bit-identically to the greedy); they differ in cost and
// in whether a live replanning session is established. The lifetime
// objective plugs its schedulers into the same engine seam. Every
// engine except EngineIncremental is one-shot: the server maps it to a
// cool.Algorithm and makes one Planner.Plan call.
const (
	// EngineIncremental plans via Planner.Incremental and keeps the
	// live Repairer session for replan traffic. The utility default.
	EngineIncremental = "incremental"
	// EngineGreedy is the one-shot paper greedy
	// (cool.AlgorithmGreedy).
	EngineGreedy = "greedy"
	// EngineLazy is the one-shot CELF lazy greedy
	// (cool.AlgorithmLazyGreedy).
	EngineLazy = "lazy"
	// EngineParallel is the lazy greedy with its initial marginal
	// evaluation sharded across Workers goroutines
	// (cool.AlgorithmParallelLazyGreedy), bit-identical to EngineGreedy.
	EngineParallel = "parallel"

	// EngineHEF is the high-energy-first lifetime scheduler
	// (cool.AlgorithmHEF). The default under ObjectiveLifetime.
	EngineHEF = "hef"
	// EngineStripCover is the rotating disjoint-cover-group lifetime
	// scheduler (cool.AlgorithmStripCover).
	EngineStripCover = "strip-cover"
	// EngineLifetimeExact is the exhaustive lifetime reference
	// (cool.AlgorithmLifetimeExact; tiny deployments only).
	EngineLifetimeExact = "lifetime-exact"
)

// Objective names accepted by PlanRequest.Objective. The empty string
// means ObjectiveUtility, which keeps every pre-objective client and
// frame encoding working unchanged.
const (
	ObjectiveUtility  = "utility"
	ObjectiveLifetime = "lifetime"
)

// PlanRequest computes (or returns the committed) schedule of an
// admitted snapshot.
type PlanRequest struct {
	Fingerprint string `json:"fingerprint"`
	// Engine selects the planning engine; empty means
	// EngineIncremental under the utility objective and EngineHEF
	// under the lifetime objective.
	Engine string `json:"engine,omitempty"`
	// Workers bounds EngineParallel's fill concurrency (<= 0 NumCPU);
	// other engines ignore it.
	Workers int `json:"workers,omitempty"`
	// Objective selects what to optimize: "" or ObjectiveUtility for
	// the per-period submodular utility (the historical behavior), or
	// ObjectiveLifetime for coverage lifetime under battery budgets.
	// The field is omitted when empty, so existing encodings are
	// byte-identical.
	Objective string `json:"objective,omitempty"`
}

// LifetimePlanInfo is the lifetime half of a PlanResponse: the
// verified coverage lifetime, the horizon it was planned against, the
// cover-group count (strip-cover only) and the per-slot active sets.
type LifetimePlanInfo struct {
	Lifetime int `json:"lifetime"`
	Horizon  int `json:"horizon"`
	Groups   int `json:"groups,omitempty"`
	// ActiveSlots[t] is the sorted active set of slot t.
	ActiveSlots [][]int `json:"active_slots"`
}

// PlanResponse carries the planned schedule. Exactly one of Schedule
// (utility objective) and Lifetime (lifetime objective) is set; Mode
// and Slots describe the periodic schedule and are empty for lifetime
// plans.
type PlanResponse struct {
	Engine   string         `json:"engine"`
	Schedule *cool.Schedule `json:"schedule,omitempty"`
	// Utility is the period utility Σ_t U(S_t) of the schedule.
	Utility float64 `json:"utility"`
	Mode    string  `json:"mode,omitempty"`
	Slots   int     `json:"slots,omitempty"`
	// Objective echoes the resolved objective of the request; empty
	// means utility (pre-objective encodings are byte-identical).
	Objective string `json:"objective,omitempty"`
	// Lifetime carries the lifetime-objective result.
	Lifetime *LifetimePlanInfo `json:"lifetime,omitempty"`
}

// Replan operations accepted by ReplanRequest.Op.
const (
	// ReplanKill removes live sensors (Incremental.KillSensors).
	ReplanKill = "kill"
	// ReplanDeploy re-activates absent sensors
	// (Incremental.DeploySensors).
	ReplanDeploy = "deploy"
	// ReplanDrift re-targets the schedule at a new charging ratio
	// (Incremental.UpdateRho).
	ReplanDrift = "drift"
)

// ReplanRequest applies one fleet perturbation through the live
// incremental session, repairing in O(perturbation).
type ReplanRequest struct {
	Fingerprint string `json:"fingerprint"`
	// Op is ReplanKill, ReplanDeploy or ReplanDrift.
	Op string `json:"replan_op"`
	// IDs are the sensors to kill/deploy (unused for drift).
	IDs []int `json:"ids,omitempty"`
	// Rho is the new charging ratio for drift (unused otherwise).
	Rho float64 `json:"rho,omitempty"`
	// WithGap additionally computes the utility gap versus a
	// from-scratch replan (the O(fleet) yardstick, off the hot path).
	WithGap bool `json:"with_gap,omitempty"`
	// WithSchedule additionally returns the repaired schedule.
	WithSchedule bool `json:"with_schedule,omitempty"`
}

// ReplanResponse reports the repair: the perturbation's blast radius
// and the sweep's work, exactly as cool.RepairStats reports them for a
// direct Incremental call.
type ReplanResponse struct {
	Changed       int     `json:"changed"`
	Dirty         int     `json:"dirty"`
	Rounds        int     `json:"rounds"`
	Moves         int     `json:"moves"`
	Full          bool    `json:"full,omitempty"`
	UtilityBefore float64 `json:"utility_before"`
	Utility       float64 `json:"utility"`
	// Gap is the percent utility gap versus a full replan (only when
	// requested).
	Gap *float64 `json:"gap,omitempty"`
	// Schedule is the repaired committed schedule (only when
	// requested).
	Schedule *cool.Schedule `json:"schedule,omitempty"`
}

// Query subjects accepted by QueryRequest.What.
const (
	QuerySchedule = "schedule"
	QueryUtility  = "utility"
	QueryGap      = "gap"
	QueryStatus   = "status"
)

// QueryRequest reads state from a deployment's live session without
// mutating it.
type QueryRequest struct {
	Fingerprint string `json:"fingerprint"`
	What        string `json:"what"`
}

// QueryResponse carries the requested view. Fields beyond the
// requested subject are zero.
type QueryResponse struct {
	Schedule *cool.Schedule `json:"schedule,omitempty"`
	Utility  *float64       `json:"utility,omitempty"`
	Gap      *float64       `json:"gap,omitempty"`
	Status   *StatusInfo    `json:"status,omitempty"`
}

// StatusInfo is the QueryStatus view of a deployment.
type StatusInfo struct {
	Fingerprint string  `json:"fingerprint"`
	Name        string  `json:"name,omitempty"`
	Parent      string  `json:"parent,omitempty"`
	Seq         uint64  `json:"seq"`
	Mode        string  `json:"mode"`
	Slots       int     `json:"slots"`
	Rho         float64 `json:"rho"`
	Present     int     `json:"present"`
	Suspended   bool    `json:"suspended"`
	// Live reports whether an incremental session is established.
	Live bool `json:"live"`
	// Objective is the deployment's last-planned objective ("utility"
	// or "lifetime"); empty until the first plan establishes one, so
	// pre-objective encodings are byte-identical.
	Objective string `json:"objective,omitempty"`
	// Watchers counts connections subscribed to this deployment's push
	// stream.
	Watchers int `json:"watchers,omitempty"`
}

// ListRequest enumerates the tenant's admitted snapshots.
type ListRequest struct{}

// SnapshotInfo is one registry entry in admission order — the
// provenance record (fingerprint + parent lineage) kept for replay and
// audit.
type SnapshotInfo struct {
	Fingerprint string `json:"fingerprint"`
	Name        string `json:"name,omitempty"`
	Parent      string `json:"parent,omitempty"`
	Seq         uint64 `json:"seq"`
	Sensors     int    `json:"sensors"`
	Targets     int    `json:"targets"`
	// Objective is the deployment's last-planned objective; empty until
	// a plan establishes one (pre-objective encodings byte-identical).
	Objective string `json:"objective,omitempty"`
}

// ListResponse carries the tenant's snapshots in admission order.
type ListResponse struct {
	Snapshots []SnapshotInfo `json:"snapshots"`
}

// Watch operations accepted by WatchRequest.Op.
const (
	// WatchSubscribe dedicates the connection to a deployment's push
	// stream: after the WatchResponse, the server sends a FramePush per
	// successful plan/replan until unsubscribe or disconnect.
	WatchSubscribe = "subscribe"
	// WatchUnsubscribe ends the connection's subscription to the
	// deployment and returns it to request/response use.
	WatchUnsubscribe = "unsubscribe"
)

// WatchRequest subscribes the connection to (or unsubscribes it from)
// a deployment's schedule pushes.
type WatchRequest struct {
	Fingerprint string `json:"fingerprint"`
	// Op is WatchSubscribe or WatchUnsubscribe.
	Op string `json:"watch_op"`
}

// WatchResponse acknowledges a watch change.
type WatchResponse struct {
	// Subscribed reports the connection's subscription state for the
	// deployment after the request.
	Subscribed bool `json:"subscribed"`
	// Watchers counts the deployment's subscribed connections after the
	// request.
	Watchers int `json:"watchers"`
	// Events is the deployment's push-event counter at the time of the
	// request — the first push the subscriber sees has Seq == Events+1,
	// so a reconnecting watcher can detect missed events.
	Events uint64 `json:"events"`
}

// WatchEvent is the payload of a FramePush: one successful plan or
// replan on a watched deployment, carrying exactly the payload the
// acting client received (the watcher-vs-poller differential holds
// these equal bit for bit), except that a pushed replan always carries
// the repaired schedule — a watcher cannot ask for it later.
type WatchEvent struct {
	Fingerprint string `json:"fingerprint"`
	// Seq numbers the deployment's pushes from 1, gap-free per
	// deployment.
	Seq uint64 `json:"seq"`
	// Kind is "plan" or "replan"; exactly the matching body is set.
	Kind   string          `json:"kind"`
	Plan   *PlanResponse   `json:"plan,omitempty"`
	Replan *ReplanResponse `json:"replan,omitempty"`
}

// Watch-event kinds.
const (
	WatchEventPlan   = "plan"
	WatchEventReplan = "replan"
)

// DecodeWatchEvent decodes a FramePush payload. It never panics on
// hostile payloads (FuzzWireDecode).
func DecodeWatchEvent(payload []byte) (*WatchEvent, error) {
	var ev WatchEvent
	if err := json.Unmarshal(payload, &ev); err != nil {
		return nil, fmt.Errorf("controlplane: decoding watch event: %w", err)
	}
	return &ev, nil
}

// Control operations accepted by ControlRequest.Op — the state of the
// serving plane changes without redeploy (the control-protocol
// start/stop feature).
const (
	// ControlSuspend stops serving plan/replan/query for a deployment.
	ControlSuspend = "suspend"
	// ControlResume restarts serving for a suspended deployment.
	ControlResume = "resume"
	// ControlReset drops the live incremental session; the next plan
	// starts from scratch. The registry snapshot is untouched.
	ControlReset = "reset"
	// ControlLimits reconfigures admission limits at runtime.
	ControlLimits = "limits"
)

// ControlRequest changes serving state.
type ControlRequest struct {
	// Op is one of the Control* constants.
	Op string `json:"control_op"`
	// Fingerprint selects the deployment (suspend/resume/reset).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Limits are the new admission limits (ControlLimits); zero fields
	// keep their current values.
	Limits *Limits `json:"limits,omitempty"`
}

// ControlResponse acknowledges a control change and echoes the
// resulting state.
type ControlResponse struct {
	Suspended bool    `json:"suspended,omitempty"`
	Limits    *Limits `json:"limits,omitempty"`
}

// Request is the envelope of a FrameRequest: the op tag, the tenant,
// and exactly the body matching the op.
type Request struct {
	Op     Op     `json:"op"`
	Tenant string `json:"tenant"`

	Submit  *SubmitRequest  `json:"submit,omitempty"`
	Plan    *PlanRequest    `json:"plan,omitempty"`
	Replan  *ReplanRequest  `json:"replan,omitempty"`
	Query   *QueryRequest   `json:"query,omitempty"`
	List    *ListRequest    `json:"list,omitempty"`
	Control *ControlRequest `json:"control,omitempty"`
	Watch   *WatchRequest   `json:"watch,omitempty"`
}

// Response is the envelope of a FrameResponse, mirroring Request.
type Response struct {
	Op Op `json:"op"`

	Submit  *SubmitResponse  `json:"submit,omitempty"`
	Plan    *PlanResponse    `json:"plan,omitempty"`
	Replan  *ReplanResponse  `json:"replan,omitempty"`
	Query   *QueryResponse   `json:"query,omitempty"`
	List    *ListResponse    `json:"list,omitempty"`
	Control *ControlResponse `json:"control,omitempty"`
	Watch   *WatchResponse   `json:"watch,omitempty"`
}

// DecodeRequest decodes and validates a FrameRequest payload: known
// op, non-empty tenant, and exactly the matching body present. It
// never panics on hostile payloads (FuzzWireDecode).
func DecodeRequest(payload []byte) (*Request, error) {
	var req Request
	if err := json.Unmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("controlplane: decoding request: %w", err)
	}
	if req.Tenant == "" {
		return nil, fmt.Errorf("controlplane: request missing tenant")
	}
	bodies := 0
	for _, present := range []bool{req.Submit != nil, req.Plan != nil,
		req.Replan != nil, req.Query != nil, req.List != nil, req.Control != nil,
		req.Watch != nil} {
		if present {
			bodies++
		}
	}
	var want bool
	switch req.Op {
	case OpSubmit:
		want = req.Submit != nil
	case OpPlan:
		want = req.Plan != nil
	case OpReplan:
		want = req.Replan != nil
	case OpQuery:
		want = req.Query != nil
	case OpList:
		want = req.List != nil
	case OpControl:
		want = req.Control != nil
	case OpWatch:
		want = req.Watch != nil
	default:
		return nil, fmt.Errorf("controlplane: unknown op %q", req.Op)
	}
	if !want || bodies != 1 {
		return nil, fmt.Errorf("controlplane: op %q wants exactly its own body (got %d bodies)", req.Op, bodies)
	}
	if req.Plan != nil {
		if _, err := cool.ParseObjective(req.Plan.Objective); err != nil {
			return nil, fmt.Errorf("controlplane: plan request: unknown objective %q", req.Plan.Objective)
		}
	}
	return &req, nil
}

// DecodeResponse decodes a FrameResponse payload.
func DecodeResponse(payload []byte) (*Response, error) {
	var resp Response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, fmt.Errorf("controlplane: decoding response: %w", err)
	}
	return &resp, nil
}

// DecodeHello decodes a FrameHello payload.
func DecodeHello(payload []byte) (*Hello, error) {
	var h Hello
	if err := json.Unmarshal(payload, &h); err != nil {
		return nil, fmt.Errorf("controlplane: decoding hello: %w", err)
	}
	return &h, nil
}

// DecodeHelloAck decodes a FrameHelloAck payload.
func DecodeHelloAck(payload []byte) (*HelloAck, error) {
	var h HelloAck
	if err := json.Unmarshal(payload, &h); err != nil {
		return nil, fmt.Errorf("controlplane: decoding hello ack: %w", err)
	}
	return &h, nil
}

// DecodeWireError decodes a FrameError payload. A malformed error
// payload still yields a non-nil *WireError (CodeBadFrame) so callers
// always have a typed error to propagate.
func DecodeWireError(payload []byte) *WireError {
	var we WireError
	if err := json.Unmarshal(payload, &we); err != nil || we.Code == "" {
		return &WireError{Code: CodeBadFrame, Message: fmt.Sprintf("undecodable error frame (%d bytes)", len(payload))}
	}
	return &we
}

// encodeFrame marshals v and wraps it in a frame of the given type.
func encodeFrame(version byte, t FrameType, v any) (Frame, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return Frame{}, fmt.Errorf("controlplane: encoding %T: %w", v, err)
	}
	return Frame{Version: version, Type: t, Payload: payload}, nil
}
