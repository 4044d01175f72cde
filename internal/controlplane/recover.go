package controlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
)

// decodeStrictJSON unmarshals exactly one JSON value, rejecting
// unknown fields and trailing garbage — a WAL payload is ours or it is
// corruption, so the lenient wire-decoder posture is wrong here.
func decodeStrictJSON(payload []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decoding payload: %w", err)
	}
	// More reports false before a closing bracket, so only io.EOF
	// proves nothing but whitespace follows the value.
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("decoding payload: trailing data")
	}
	return nil
}

// Crash recovery: replaying a Recovered (clean-prefix WAL records,
// after a legacy checkpoint when the data dir holds one) into a fresh
// Server so a restarted daemon reaches a state bit-identical — same
// fingerprints, same Seq, same list order, same effective limits — to
// the daemon that never crashed.
//
// Replay trusts nothing it reads: every submit record's spec is pushed
// back through the same normalizer the live admission path used and
// its fingerprint re-derived with the same appender; a mismatch is a
// hard error (fail stop, never a silently wrong registry). A WAL record
// in the shape json.Marshal writes is read by the spec codec's cursor,
// and any other by the strict decoder; both yield the same record.
// Lineage is NOT re-validated — it was validated at admission, and
// concurrent submits may durably land out of parent order — but the
// recorded Seq is installed verbatim, so audit order survives the round
// trip exactly.

// Export returns every admitted snapshot across all tenants in global
// admission (Seq) order, plus the registry's sequence counter — the
// body of a legacy checkpoint, and the canonical serialization
// FuzzWALReplay pins.
func (r *Registry) Export() ([]SubmitRecord, uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []SubmitRecord
	for _, byFP := range r.tenants {
		for _, d := range byFP {
			out = append(out, d.rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, r.seq
}

// installRecovered installs a replayed snapshot with its recorded Seq;
// its planner is built on first use. Idempotent on (fingerprint, seq):
// a snapshot installed twice replays as a silent skip; the same
// fingerprint at a different seq is corruption and errors.
func (r *Registry) installRecovered(rec *SubmitRecord) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.tenants[rec.Tenant][rec.Fingerprint]; ok {
		if existing.rec.Seq != rec.Seq {
			return fmt.Errorf("controlplane: replayed snapshot %s has seq %d, registry holds %d",
				rec.Fingerprint, rec.Seq, existing.rec.Seq)
		}
		return nil
	}
	if rec.Seq == 0 {
		return fmt.Errorf("controlplane: replayed snapshot %s has zero seq", rec.Fingerprint)
	}
	r.insert(&deployment{rec: *rec})
	return nil
}

// restoreLimits applies a replayed limits change the way SetLimits
// does, without logging it.
func (r *Registry) restoreLimits(l Limits) {
	r.mu.Lock()
	r.limits = r.limits.merge(l)
	r.mu.Unlock()
}

// seqFloor raises the registry's admission counter to at least seq
// (the checkpoint's counter can exceed its max snapshot Seq when the
// later snapshots' tenants were since untouched — replay must not
// reissue those numbers).
func (r *Registry) seqFloor(seq uint64) {
	r.mu.Lock()
	r.seq = max(r.seq, seq)
	r.mu.Unlock()
}

// RecoverStats summarizes a replay for logs.
type RecoverStats struct {
	// Snapshots and Tenants count what the replay installed.
	Snapshots int
	Tenants   int
	// Checkpointed counts snapshots that came from a legacy checkpoint
	// (the rest replayed from WAL records).
	Checkpointed int
	// Records counts WAL records applied past the checkpoint.
	Records int
	// TornTail is the store's torn-tail report, echoed for the caller's
	// log line (nil after a clean shutdown).
	TornTail *TornTailError
}

// replaySubmit verifies one durable admission event and installs it:
// the spec re-normalizes and re-fingerprints to exactly the recorded
// identity, or the replay fails stop.
func (s *Server) replaySubmit(rec SubmitRecord) error {
	if rec.Tenant == "" {
		return errors.New("controlplane: replayed snapshot missing tenant")
	}
	spec, err := Normalize(rec.Spec)
	if err != nil {
		return fmt.Errorf("controlplane: replayed snapshot %s no longer normalizes: %w", rec.Fingerprint, err)
	}
	fp, err := Fingerprint(spec)
	if err != nil {
		return err
	}
	if fp != rec.Fingerprint {
		return fmt.Errorf("controlplane: replayed snapshot fingerprint mismatch: recorded %s, recomputed %s",
			rec.Fingerprint, fp)
	}
	rec.Spec = spec
	return s.reg.installRecovered(&rec)
}

// Restore replays recovered durable state into this server. The server
// must be fresh (nothing admitted); planners are NOT rebuilt here —
// each replayed entry builds its own on first use, so recovery cost is
// O(state), not O(state × planner construction).
func (s *Server) Restore(rec *Recovered) (*RecoverStats, error) {
	if rec == nil {
		return &RecoverStats{}, nil
	}
	if _, seq := s.reg.Export(); seq != 0 {
		return nil, errors.New("controlplane: Restore requires a fresh server")
	}
	stats := &RecoverStats{TornTail: rec.TornTail}

	if cp := rec.Checkpoint; cp != nil {
		s.reg.restoreLimits(cp.Limits)
		for i := range cp.Snapshots {
			if err := s.replaySubmit(cp.Snapshots[i]); err != nil {
				return nil, fmt.Errorf("controlplane: checkpoint snapshot %d: %w", i, err)
			}
		}
		s.reg.seqFloor(cp.Seq)
		stats.Checkpointed = len(cp.Snapshots)
	}

	for _, r := range rec.Records {
		switch r.Kind {
		case RecordSubmit:
			sub, ok := decodeSubmitRecordFast(r.Payload)
			if !ok {
				if err := decodeStrictJSON(r.Payload, &sub); err != nil {
					return nil, fmt.Errorf("controlplane: WAL record lsn=%d: %w", r.LSN, err)
				}
			}
			if err := s.replaySubmit(sub); err != nil {
				return nil, fmt.Errorf("controlplane: WAL record lsn=%d: %w", r.LSN, err)
			}
		case RecordLimits:
			var lim LimitsRecord
			if err := decodeStrictJSON(r.Payload, &lim); err != nil {
				return nil, fmt.Errorf("controlplane: WAL record lsn=%d: %w", r.LSN, err)
			}
			// The record holds the post-change effective limits (all
			// fields non-zero), so they are restored exactly.
			s.reg.restoreLimits(lim.Limits)
		default:
			return nil, fmt.Errorf("controlplane: WAL record lsn=%d: unknown kind %d", r.LSN, r.Kind)
		}
		stats.Records++
	}

	snaps, _ := s.reg.Export()
	tenants := make(map[string]struct{})
	for i := range snaps {
		tenants[snaps[i].Tenant] = struct{}{}
	}
	stats.Snapshots = len(snaps)
	stats.Tenants = len(tenants)
	return stats, nil
}

// UseStore replays the store's recovered state into the server, then
// attaches the store to its registry, so every later admission and
// limits change is logged before it is published, and Close closes it.
// The replay itself appends nothing. Call before Serve.
func (s *Server) UseStore(st *Store, rec *Recovered) (*RecoverStats, error) {
	stats, err := s.Restore(rec)
	if err != nil {
		return nil, err
	}
	s.reg.useStore(st)
	return stats, nil
}
