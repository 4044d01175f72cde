package controlplane

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func admitSpec() DeploymentSpec {
	return testSpec(20, 12, 3, 5)
}

// count returns the tenant's number of admitted snapshots.
func (r *Registry) count(tenant string) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.tenants[tenant])
}

// TestAdmissionDeterministic submits the same snapshot twice: same
// fingerprint, same decision, same registry sequence number — the
// second submit is an idempotent resubmission, not a new snapshot.
func TestAdmissionDeterministic(t *testing.T) {
	reg := newRegistry(Limits{})
	req := &SubmitRequest{Name: "field", Spec: admitSpec()}

	first, resub, werr := reg.admit("acme", req)
	if werr != nil {
		t.Fatalf("first admit: %v", werr)
	}
	if first.planner == nil || resub {
		t.Fatalf("first admit: planner=%v resubmitted=%v", first.planner, resub)
	}
	second, resub, werr := reg.admit("acme", req)
	if werr != nil {
		t.Fatalf("second admit: %v", werr)
	}
	if !resub {
		t.Fatal("second admit of identical spec: want resubmitted=true")
	}
	if second.rec.Fingerprint != first.rec.Fingerprint || second.rec.Seq != first.rec.Seq {
		t.Fatalf("resubmit changed identity: first (%s, seq %d), second (%s, seq %d)",
			first.rec.Fingerprint, first.rec.Seq, second.rec.Fingerprint, second.rec.Seq)
	}
}

// TestAdmissionConcurrentTenants races the same snapshot in from two
// tenants (and many goroutines per tenant): every admit of the same
// spec must yield the same fingerprint, tenants stay fully isolated,
// and each tenant ends up with exactly one registry entry.
func TestAdmissionConcurrentTenants(t *testing.T) {
	reg := newRegistry(Limits{})
	tenants := []string{"acme", "globex"}
	const perTenant = 8

	fps := make(chan string, len(tenants)*perTenant)
	var wg sync.WaitGroup
	for _, tenant := range tenants {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string) {
				defer wg.Done()
				d, _, werr := reg.admit(tenant, &SubmitRequest{Spec: admitSpec()})
				if werr != nil {
					t.Errorf("%s: %v", tenant, werr)
					return
				}
				fps <- d.rec.Fingerprint
			}(tenant)
		}
	}
	wg.Wait()
	close(fps)

	want := ""
	for fp := range fps {
		if want == "" {
			want = fp
		} else if fp != want {
			t.Fatalf("fingerprint nondeterminism under concurrency: %s vs %s", fp, want)
		}
	}
	for _, tenant := range tenants {
		if n := reg.count(tenant); n != 1 {
			t.Fatalf("%s: %d registry entries after racing identical submits, want 1", tenant, n)
		}
		if _, ok := reg.get(tenant, want); !ok {
			t.Fatalf("%s: snapshot %s missing from registry", tenant, want)
		}
	}
	// Isolation: neither tenant sees a foreign tenant's snapshots.
	if _, ok := reg.get("initech", want); ok {
		t.Fatal("tenant isolation broken: unknown tenant resolves a snapshot")
	}
}

// TestAdmissionRejectionNoResidue proves rejected submissions leave
// no trace: the registry stays empty, sequence numbers are not burned
// in a way that perturbs later admissions, and a subsequent valid
// submit of the same name works normally.
func TestAdmissionRejectionNoResidue(t *testing.T) {
	reg := newRegistry(Limits{MaxSensors: 8})

	bad := admitSpec() // 20 sensors > limit of 8
	if _, _, werr := reg.admit("acme", &SubmitRequest{Name: "field", Spec: bad}); werr == nil || werr.Code != CodeRejected {
		t.Fatalf("over-limit spec: want rejected, got %v", werr)
	}
	invalid := admitSpec()
	invalid.Sensors[3].Range = -1
	if _, _, werr := reg.admit("acme", &SubmitRequest{Spec: invalid}); werr == nil || werr.Code != CodeRejected {
		t.Fatalf("invalid spec: want rejected, got %v", werr)
	}
	orphan := testSpec(4, 3, 3, 8)
	if _, _, werr := reg.admit("acme", &SubmitRequest{Parent: "no-such-parent", Spec: orphan}); werr == nil || werr.Code != CodeNotFound {
		t.Fatalf("unknown parent: want not-found, got %v", werr)
	}

	if n := reg.count("acme"); n != 0 {
		t.Fatalf("rejections left %d registry entries, want 0", n)
	}
	if got := reg.List("acme"); len(got) != 0 {
		t.Fatalf("rejections visible in List: %v", got)
	}

	good := testSpec(5, 3, 3, 8)
	d, _, werr := reg.admit("acme", &SubmitRequest{Name: "field", Spec: good})
	if werr != nil {
		t.Fatalf("valid submit after rejections: %v", werr)
	}
	if n := reg.count("acme"); n != 1 || d.rec.Seq == 0 {
		t.Fatalf("post-rejection admit: count=%d seq=%d", n, d.rec.Seq)
	}
}

// TestAdmissionParentConflict pins the lineage rule: resubmitting an
// identical spec under a different parent is a deterministic conflict,
// not a silent lineage rewrite.
func TestAdmissionParentConflict(t *testing.T) {
	reg := newRegistry(Limits{})
	root, _, werr := reg.admit("acme", &SubmitRequest{Name: "root", Spec: testSpec(6, 4, 3, 2)})
	if werr != nil {
		t.Fatal(werr)
	}
	child := testSpec(8, 4, 3, 3)
	if _, _, werr := reg.admit("acme", &SubmitRequest{Name: "child", Parent: root.rec.Fingerprint, Spec: child}); werr != nil {
		t.Fatal(werr)
	}
	if _, _, werr := reg.admit("acme", &SubmitRequest{Name: "child", Spec: child}); werr == nil || werr.Code != CodeConflict {
		t.Fatalf("same spec, different parent: want conflict, got %v", werr)
	}
}

// TestFingerprintCanonicalization checks that the fingerprint is over
// the normalized spec: equivalent inputs (defaulted utility, default
// weight spelled out, ρ canonicalized through the period grid) hash
// identically, and any semantic change hashes differently.
func TestFingerprintCanonicalization(t *testing.T) {
	base := admitSpec()

	variant := admitSpec()
	variant.Utility = UtilityTargets // explicit spelling of the default
	for i := range variant.Targets {
		if variant.Targets[i].Weight == 0 {
			variant.Targets[i].Weight = 1 // explicit default weight
		}
	}

	fp := func(s DeploymentSpec) string {
		norm, err := Normalize(s)
		if err != nil {
			t.Fatal(err)
		}
		h, err := Fingerprint(norm)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	fpBase, fpVariant := fp(base), fp(variant)
	if fpBase != fpVariant {
		t.Fatalf("equivalent specs fingerprint differently: %s vs %s", fpBase, fpVariant)
	}

	changed := admitSpec()
	changed.Sensors[0].X += 0.5
	fpChanged := fp(changed)
	if fpChanged == fpBase {
		t.Fatal("semantically different specs share a fingerprint")
	}
}

// TestNormalizeRejections tables the validator: every malformed spec
// is refused with a message naming the offending field.
func TestNormalizeRejections(t *testing.T) {
	mk := func(mut func(*DeploymentSpec)) DeploymentSpec {
		s := testSpec(5, 3, 3, 4)
		mut(&s)
		return s
	}
	cases := []struct {
		name string
		spec DeploymentSpec
		want string
	}{
		{"bad rho", mk(func(s *DeploymentSpec) { s.Rho = 2.5 }), "rho"},
		{"zero rho", mk(func(s *DeploymentSpec) { s.Rho = 0 }), "rho"},
		{"no sensors", mk(func(s *DeploymentSpec) { s.Sensors = nil }), "sensor"},
		{"no targets", mk(func(s *DeploymentSpec) { s.Targets = nil }), "target"},
		{"nan coord", mk(func(s *DeploymentSpec) { s.Sensors[0].X = nan() }), "sensor"},
		{"zero range", mk(func(s *DeploymentSpec) { s.Sensors[1].Range = 0 }), "range"},
		{"negative weight", mk(func(s *DeploymentSpec) { s.Targets[0].Weight = -2 }), "weight"},
		{"unknown utility", mk(func(s *DeploymentSpec) { s.Utility = "psychic" }), "utility"},
		{"detect prob on targets", mk(func(s *DeploymentSpec) { s.DetectProb = 0.5 }), "detect_prob"},
		{"detect prob out of range", mk(func(s *DeploymentSpec) {
			s.Utility = UtilityDetection
			s.DetectProb = 1.5
		}), "detect_prob"},
	}
	for _, c := range cases {
		if _, err := Normalize(c.spec); err == nil {
			t.Errorf("%s: want error, got nil", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}

func nan() float64 {
	var zero float64
	return zero / zero
}

// TestLimitsReconfigure pins runtime admission reconfiguration: a
// tightened limit applies to the next submit without restarting, and
// zero-valued fields keep their current setting.
func TestLimitsReconfigure(t *testing.T) {
	reg := newRegistry(Limits{})
	if _, _, werr := reg.admit("acme", &SubmitRequest{Spec: admitSpec()}); werr != nil {
		t.Fatal(werr)
	}
	got, err := reg.SetLimits(Limits{MaxSensors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxSensors != 4 || got.MaxTargets != DefaultMaxTargets {
		t.Fatalf("partial reconfigure: %+v", got)
	}
	other := testSpec(10, 5, 3, 77)
	if _, _, werr := reg.admit("acme", &SubmitRequest{Spec: other}); werr == nil || werr.Code != CodeRejected {
		t.Fatalf("post-tighten submit: want rejected, got %v", werr)
	}
	// The tightening is not retroactive: the admitted snapshot stays.
	if n := reg.count("acme"); n != 1 {
		t.Fatalf("registry count after tighten: %d", n)
	}
}

// TestDeploymentCap fills a tenant to its deployment cap and checks
// the cap is per tenant, not global.
func TestDeploymentCap(t *testing.T) {
	reg := newRegistry(Limits{MaxDeployments: 2})
	for i := 0; i < 2; i++ {
		if _, _, werr := reg.admit("acme", &SubmitRequest{Spec: testSpec(5, 3, 3, uint64(i))}); werr != nil {
			t.Fatalf("submit %d: %v", i, werr)
		}
	}
	if _, _, werr := reg.admit("acme", &SubmitRequest{Spec: testSpec(5, 3, 3, 99)}); werr == nil || werr.Code != CodeRejected {
		t.Fatalf("over cap: want rejected, got %v", werr)
	}
	if _, _, werr := reg.admit("globex", &SubmitRequest{Spec: testSpec(5, 3, 3, 99)}); werr != nil {
		t.Fatalf("other tenant blocked by foreign cap: %v", werr)
	}
}

// TestDeploymentCapConcurrent races 16 distinct submits against a
// per-tenant cap of 4, round after round: registration decides the cap
// under the table lock, so exactly 4 are admitted and 12 rejected.
func TestDeploymentCapConcurrent(t *testing.T) {
	const rounds, submits, limit = 50, 16, 4
	for round := 0; round < rounds; round++ {
		reg := newRegistry(Limits{MaxDeployments: limit})
		codes := make(chan ErrorCode, submits)
		var wg sync.WaitGroup
		for i := 0; i < submits; i++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				var code ErrorCode
				if _, _, werr := reg.admit("acme", &SubmitRequest{Spec: testSpec(20, 12, 3, seed)}); werr != nil {
					code = werr.Code
				}
				codes <- code
			}(uint64(round*submits + i))
		}
		wg.Wait()
		close(codes)
		admitted, rejected := 0, 0
		for code := range codes {
			switch code {
			case "":
				admitted++
			case CodeRejected:
				rejected++
			default:
				t.Fatalf("round %d: unexpected code %s", round, code)
			}
		}
		if admitted != limit || rejected != submits-limit || reg.count("acme") != limit {
			t.Fatalf("round %d: %d admitted, %d rejected, %d registered; want %d, %d, %d",
				round, admitted, rejected, reg.count("acme"), limit, submits-limit, limit)
		}
	}
}

// TestRegistryListOrder pins List ordering: snapshots come back in
// admission order (ascending Seq), so provenance reads as a timeline.
func TestRegistryListOrder(t *testing.T) {
	reg := newRegistry(Limits{})
	var parent string
	for i := 0; i < 4; i++ {
		d, _, werr := reg.admit("acme", &SubmitRequest{
			Name:   fmt.Sprintf("v%d", i),
			Parent: parent,
			Spec:   testSpec(5+i, 3, 3, uint64(100+i)),
		})
		if werr != nil {
			t.Fatal(werr)
		}
		parent = d.rec.Fingerprint
	}
	list := reg.List("acme")
	if len(list) != 4 {
		t.Fatalf("list length %d, want 4", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i].Seq <= list[i-1].Seq {
			t.Fatalf("list not in admission order: %+v", list)
		}
		if list[i].Parent != list[i-1].Fingerprint {
			t.Fatalf("lineage broken at %d: %+v", i, list)
		}
	}
}
