package controlplane

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"cool/internal/core"
)

// Regenerate the golden wire corpus and the committed fuzz seeds:
//
//	go test ./internal/controlplane -run TestGoldenWire -update
var updateGolden = flag.Bool("update", false, "rewrite the golden wire corpus and fuzz seed corpus")

const goldenWirePath = "testdata/golden_wire.json"

type goldenEntry struct {
	Name     string `json:"name"`
	FrameHex string `json:"frame_hex"`
}

// goldenFrames is the fixed message set whose encodings the corpus
// pins byte-for-byte: the handshake (including version negotiation
// and its rejection), every request and response kind, and every
// typed error code. Changing any encoding is a wire-format break and
// must show up as a diff here.
func goldenFrames(t *testing.T) []struct {
	name  string
	frame Frame
} {
	t.Helper()
	mk := func(name string, ft FrameType, v any) struct {
		name  string
		frame Frame
	} {
		f, err := encodeFrame(Version1, ft, v)
		if err != nil {
			t.Fatalf("encoding golden %s: %v", name, err)
		}
		return struct {
			name  string
			frame Frame
		}{name, f}
	}
	spec := DeploymentSpec{
		Rho: 3,
		Sensors: []SensorSpec{
			{X: 10, Y: 20, Range: 15},
			{X: 35.5, Y: 40, Range: 15},
		},
		Targets: []TargetSpec{{X: 25, Y: 30, Weight: 2}},
	}
	placement, err := core.NewSchedule(core.ModePlacement, 4, []int{0, 3, 1, -1})
	if err != nil {
		t.Fatalf("golden placement schedule: %v", err)
	}
	removal, err := core.NewSchedule(core.ModeRemoval, 3, []int{0, 2, -1})
	if err != nil {
		t.Fatalf("golden removal schedule: %v", err)
	}
	gap := 0.125
	utility := 6.5

	out := []struct {
		name  string
		frame Frame
	}{
		mk("hello", FrameHello, &Hello{MaxVersion: MaxVersion, Client: "coolctl/1.0"}),
		mk("hello-future-client", FrameHello, &Hello{MaxVersion: MaxVersion + 7, Client: "coolctl/2.0"}),
		mk("hello-ack", FrameHelloAck, &HelloAck{Version: Version1, Server: "coold/1.0.0"}),
		mk("request-submit", FrameRequest, &Request{Op: OpSubmit, Tenant: "acme",
			Submit: &SubmitRequest{Name: "field-a", Spec: spec}}),
		mk("request-submit-child", FrameRequest, &Request{Op: OpSubmit, Tenant: "acme",
			Submit: &SubmitRequest{Name: "field-a-v2", Parent: "deadbeef", Spec: spec}}),
		mk("request-plan", FrameRequest, &Request{Op: OpPlan, Tenant: "acme",
			Plan: &PlanRequest{Fingerprint: "deadbeef"}}),
		mk("request-plan-parallel", FrameRequest, &Request{Op: OpPlan, Tenant: "acme",
			Plan: &PlanRequest{Fingerprint: "deadbeef", Engine: EngineParallel, Workers: 4}}),
		mk("request-plan-lifetime", FrameRequest, &Request{Op: OpPlan, Tenant: "acme",
			Plan: &PlanRequest{Fingerprint: "deadbeef", Engine: EngineStripCover, Objective: ObjectiveLifetime}}),
		mk("request-replan-kill", FrameRequest, &Request{Op: OpReplan, Tenant: "acme",
			Replan: &ReplanRequest{Fingerprint: "deadbeef", Op: ReplanKill, IDs: []int{3, 17, 29}, WithGap: true}}),
		mk("request-replan-deploy", FrameRequest, &Request{Op: OpReplan, Tenant: "acme",
			Replan: &ReplanRequest{Fingerprint: "deadbeef", Op: ReplanDeploy, IDs: []int{17}, WithSchedule: true}}),
		mk("request-replan-drift", FrameRequest, &Request{Op: OpReplan, Tenant: "acme",
			Replan: &ReplanRequest{Fingerprint: "deadbeef", Op: ReplanDrift, Rho: 0.5}}),
		mk("request-query-schedule", FrameRequest, &Request{Op: OpQuery, Tenant: "acme",
			Query: &QueryRequest{Fingerprint: "deadbeef", What: QuerySchedule}}),
		mk("request-query-status", FrameRequest, &Request{Op: OpQuery, Tenant: "acme",
			Query: &QueryRequest{Fingerprint: "deadbeef", What: QueryStatus}}),
		mk("request-list", FrameRequest, &Request{Op: OpList, Tenant: "acme", List: &ListRequest{}}),
		mk("request-control-suspend", FrameRequest, &Request{Op: OpControl, Tenant: "acme",
			Control: &ControlRequest{Op: ControlSuspend, Fingerprint: "deadbeef"}}),
		mk("request-control-limits", FrameRequest, &Request{Op: OpControl, Tenant: "acme",
			Control: &ControlRequest{Op: ControlLimits, Limits: &Limits{MaxSensors: 1000}}}),
		mk("response-submit", FrameResponse, &Response{Op: OpSubmit,
			Submit: &SubmitResponse{Fingerprint: "deadbeef", Seq: 7, Sensors: 2, Targets: 1}}),
		mk("response-plan-placement", FrameResponse, &Response{Op: OpPlan,
			Plan: &PlanResponse{Engine: EngineIncremental, Schedule: placement, Utility: utility, Mode: "placement", Slots: 4}}),
		mk("response-plan-removal", FrameResponse, &Response{Op: OpPlan,
			Plan: &PlanResponse{Engine: EngineGreedy, Schedule: removal, Utility: utility, Mode: "removal", Slots: 3}}),
		mk("response-plan-lifetime", FrameResponse, &Response{Op: OpPlan,
			Plan: &PlanResponse{Engine: EngineStripCover, Objective: ObjectiveLifetime,
				Lifetime: &LifetimePlanInfo{Lifetime: 3, Horizon: 8, Groups: 2,
					ActiveSlots: [][]int{{0}, {1}, {0}}}}}),
		mk("response-replan", FrameResponse, &Response{Op: OpReplan,
			Replan: &ReplanResponse{Changed: 3, Dirty: 11, Rounds: 2, Moves: 4,
				UtilityBefore: 7.25, Utility: 6.5, Gap: &gap, Schedule: placement}}),
		mk("response-replan-full", FrameResponse, &Response{Op: OpReplan,
			Replan: &ReplanResponse{Changed: 40, Dirty: 40, Full: true, UtilityBefore: 7.25, Utility: 6.5}}),
		mk("response-query-utility", FrameResponse, &Response{Op: OpQuery,
			Query: &QueryResponse{Utility: &utility}}),
		mk("response-query-status", FrameResponse, &Response{Op: OpQuery,
			Query: &QueryResponse{Status: &StatusInfo{Fingerprint: "deadbeef", Name: "field-a",
				Seq: 7, Mode: "placement", Slots: 4, Rho: 3, Present: 38, Live: true}}}),
		mk("response-list", FrameResponse, &Response{Op: OpList,
			List: &ListResponse{Snapshots: []SnapshotInfo{
				{Fingerprint: "deadbeef", Name: "field-a", Seq: 7, Sensors: 2, Targets: 1},
				{Fingerprint: "cafef00d", Name: "field-a-v2", Parent: "deadbeef", Seq: 9, Sensors: 2, Targets: 1},
			}}}),
		mk("response-control", FrameResponse, &Response{Op: OpControl,
			Control: &ControlResponse{Suspended: true}}),
		// PR 10 additions: the watch protocol, pushed events, and the
		// objective surfaced in query/list job state. They extend the
		// corpus strictly — every frame above is byte-identical to the
		// pre-watch corpus.
		mk("request-watch-subscribe", FrameRequest, &Request{Op: OpWatch, Tenant: "acme",
			Watch: &WatchRequest{Fingerprint: "deadbeef", Op: WatchSubscribe}}),
		mk("request-watch-unsubscribe", FrameRequest, &Request{Op: OpWatch, Tenant: "acme",
			Watch: &WatchRequest{Fingerprint: "deadbeef", Op: WatchUnsubscribe}}),
		mk("response-watch-subscribed", FrameResponse, &Response{Op: OpWatch,
			Watch: &WatchResponse{Subscribed: true, Watchers: 2, Events: 5}}),
		mk("response-watch-unsubscribed", FrameResponse, &Response{Op: OpWatch,
			Watch: &WatchResponse{Subscribed: false, Watchers: 1, Events: 7}}),
		mk("push-plan", FramePush, &WatchEvent{Fingerprint: "deadbeef", Seq: 6, Kind: WatchEventPlan,
			Plan: &PlanResponse{Engine: EngineIncremental, Schedule: placement, Utility: utility,
				Mode: "placement", Slots: 4}}),
		mk("push-replan", FramePush, &WatchEvent{Fingerprint: "deadbeef", Seq: 7, Kind: WatchEventReplan,
			Replan: &ReplanResponse{Changed: 3, Dirty: 11, Rounds: 2, Moves: 4,
				UtilityBefore: 7.25, Utility: 6.5, Schedule: placement}}),
		mk("response-query-status-objective", FrameResponse, &Response{Op: OpQuery,
			Query: &QueryResponse{Status: &StatusInfo{Fingerprint: "deadbeef", Name: "field-a",
				Seq: 7, Mode: "placement", Slots: 4, Rho: 3, Present: 38, Live: true,
				Objective: ObjectiveUtility, Watchers: 2}}}),
		mk("response-list-objective", FrameResponse, &Response{Op: OpList,
			List: &ListResponse{Snapshots: []SnapshotInfo{
				{Fingerprint: "deadbeef", Name: "field-a", Seq: 7, Sensors: 2, Targets: 1, Objective: ObjectiveUtility},
				{Fingerprint: "cafef00d", Name: "life-b", Seq: 9, Sensors: 2, Targets: 1, Objective: ObjectiveLifetime},
			}}}),
	}
	for _, code := range []ErrorCode{CodeBadVersion, CodeBadFrame, CodeBadRequest,
		CodeNotFound, CodeRejected, CodeConflict, CodeSuspended, CodeInternal, CodeStorage} {
		out = append(out, mk("error-"+string(code), FrameError,
			&WireError{Code: code, Message: "golden " + string(code)}))
	}
	// The query answer behind most of a polling client's traffic, with
	// a sensor killed after the plan (Absent) as live schedules carry.
	killed, err := core.NewSchedule(core.ModePlacement, 4, []int{0, 3, core.Absent, 1, -1})
	if err != nil {
		t.Fatalf("golden schedule with an absent sensor: %v", err)
	}
	return append(out, mk("response-query-schedule", FrameResponse, &Response{Op: OpQuery,
		Query: &QueryResponse{Schedule: killed}}))
}

// TestGoldenWire pins every frame encoding byte-for-byte against the
// committed corpus, and proves each pinned frame decodes and
// re-encodes to the identical bytes. With -update it rewrites the
// corpus and the FuzzWireDecode and FuzzSpecCodec seed corpora.
func TestGoldenWire(t *testing.T) {
	frames := goldenFrames(t)
	if *updateGolden {
		entries := make([]goldenEntry, len(frames))
		for i, f := range frames {
			entries[i] = goldenEntry{Name: f.name, FrameHex: hex.EncodeToString(AppendFrame(nil, f.frame))}
		}
		data, err := json.MarshalIndent(entries, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenWirePath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenWirePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		writeSeedCorpus(t, "FuzzWireDecode", fuzzSeeds())
		writeSeedCorpus(t, "FuzzSpecCodec", specCodecSeeds(t))
		t.Logf("rewrote %s (%d frames) and the FuzzWireDecode and FuzzSpecCodec seed corpora", goldenWirePath, len(entries))
	}

	data, err := os.ReadFile(goldenWirePath)
	if err != nil {
		t.Fatalf("reading golden wire corpus (run with -update to create): %v", err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(frames) {
		t.Fatalf("corpus has %d frames, test builds %d — regenerate with -update", len(entries), len(frames))
	}
	for i, f := range frames {
		want, err := hex.DecodeString(entries[i].FrameHex)
		if err != nil {
			t.Fatalf("%s: bad hex in corpus: %v", entries[i].Name, err)
		}
		if entries[i].Name != f.name {
			t.Fatalf("corpus entry %d is %q, test builds %q — regenerate with -update", i, entries[i].Name, f.name)
		}
		got := AppendFrame(nil, f.frame)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding drifted from golden corpus\n got %x\nwant %x", f.name, got, want)
			continue
		}
		// Round trip: the pinned bytes must decode and re-encode to
		// themselves.
		decoded, err := ReadFrame(bytes.NewReader(want))
		if err != nil {
			t.Errorf("%s: pinned frame does not decode: %v", f.name, err)
			continue
		}
		if re := AppendFrame(nil, decoded); !bytes.Equal(re, want) {
			t.Errorf("%s: decode/re-encode not identity\n got %x\nwant %x", f.name, re, want)
		}
	}
}

// writeSeedCorpus materializes a fuzz target's in-code seeds as its
// committed Go fuzz corpus, so `go test -fuzz` and CI always start from
// the same baseline and the on-disk corpus cannot drift from f.Add.
func writeSeedCorpus(t *testing.T, target string, seeds [][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
		name := filepath.Join(dir, fmt.Sprintf("seed_%02d", i))
		if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
