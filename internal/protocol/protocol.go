// Package protocol implements the control-plane plumbing the paper's
// testbed needed around the scheduler: slot synchronization via base
// beacons, reliable dissemination of the computed activation schedule
// by controlled flooding, and multihop convergecast collection of
// sensed reports back to the base station.
//
// The protocols run over the lossy tick-driven radio network of
// internal/netsim and are deterministic given the network seed.
package protocol

import (
	"errors"
	"fmt"
	"sort"

	"cool/internal/netsim"
)

// BaseID is the conventional node ID of the base station.
const BaseID netsim.NodeID = 0

// Beacon is the periodic base-station announcement: it carries the
// current slot (clock sync) and a hop count (tree construction).
type Beacon struct {
	// Seq increments with every beacon round.
	Seq int
	// Slot is the base station's current time-slot number.
	Slot int
	// Hops is the distance the beacon has travelled from the base.
	Hops int
}

// ScheduleMsg floods the computed activation schedule.
type ScheduleMsg struct {
	// Version identifies the schedule (re-planning bumps it).
	Version int
	// Assign is the per-sensor slot assignment (see core.Schedule).
	Assign []int
	// Period is the schedule period in slots.
	Period int
	// Removal is true for ρ ≤ 1 passive-slot semantics.
	Removal bool
}

// Ack confirms schedule receipt, unicast hop-by-hop toward the base.
type Ack struct {
	// Version echoes the acknowledged schedule version.
	Version int
	// Origin is the acknowledging node.
	Origin netsim.NodeID
}

// Report is one sensed reading travelling up the collection tree.
type Report struct {
	// Origin is the sensing node.
	Origin netsim.NodeID
	// Seq deduplicates retransmissions per origin.
	Seq int
	// Slot is the slot the reading was taken in.
	Slot int
	// Value is the reading payload.
	Value float64
}

// ReportAck is the hop-by-hop acknowledgement of a Report: each relay
// (and the base) acks the transmitting neighbor, which retransmits
// unacked reports until the ack survives the lossy link.
type ReportAck struct {
	// Origin and Seq identify the acknowledged report.
	Origin netsim.NodeID
	Seq    int
}

// reportKey identifies a report end-to-end.
type reportKey struct {
	origin netsim.NodeID
	seq    int
}

// pendingReport is a report awaiting a hop-by-hop ack.
type pendingReport struct {
	report   Report
	lastSent int
}

// nodeState is the per-node protocol state machine.
type nodeState struct {
	id netsim.NodeID
	// clock sync
	slot    int
	synced  bool
	hops    int
	parent  netsim.NodeID
	lastSeq int
	// schedule
	schedule  *ScheduleMsg
	acked     bool
	lastFlood int // tick of the node's last schedule rebroadcast
	// pending rebroadcasts (payloads to transmit on the next tick)
	outbox []any
	// collection
	nextReportSeq int
	pending       map[reportKey]*pendingReport
	seenReports   map[reportKey]bool
}

// Config tunes the protocol engine.
type Config struct {
	// BeaconInterval is the tick spacing of base beacons (default 5).
	BeaconInterval int
	// RefloodInterval re-floods an unacked schedule every so many ticks
	// (default 10).
	RefloodInterval int
	// ReportRetryInterval retransmits unacked reports every so many
	// ticks (default 4).
	ReportRetryInterval int
}

func (c *Config) defaults() error {
	if c.BeaconInterval == 0 {
		c.BeaconInterval = 5
	}
	if c.RefloodInterval == 0 {
		c.RefloodInterval = 10
	}
	if c.ReportRetryInterval == 0 {
		c.ReportRetryInterval = 4
	}
	if c.BeaconInterval < 1 || c.RefloodInterval < 1 || c.ReportRetryInterval < 1 {
		return fmt.Errorf("protocol: non-positive intervals %+v", *c)
	}
	return nil
}

// Engine drives the protocols over a radio network. The base station
// must be registered in the network as BaseID.
type Engine struct {
	cfg   Config
	net   *netsim.Network
	nodes map[netsim.NodeID]*nodeState
	order []netsim.NodeID
	// base state
	beaconSeq   int
	baseSlot    int
	schedule    *ScheduleMsg
	ackedBy     map[netsim.NodeID]bool
	collected   []Report
	seenReports map[reportKey]bool
	// rx is the reused delivery buffer for netsim.ReceiveInto: one
	// engine drains every node's inbox through it each tick, so the
	// per-node per-tick Receive allocation of the old API is gone.
	rx []netsim.Message
}

// NewEngine wraps a network whose nodes are already registered. Every
// registered node (including BaseID) becomes a protocol participant.
func NewEngine(cfg Config, net *netsim.Network) (*Engine, error) {
	if net == nil {
		return nil, errors.New("protocol: nil network")
	}
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	if _, err := net.Position(BaseID); err != nil {
		return nil, fmt.Errorf("protocol: base station missing: %w", err)
	}
	e := &Engine{
		cfg:         cfg,
		net:         net,
		nodes:       make(map[netsim.NodeID]*nodeState),
		ackedBy:     map[netsim.NodeID]bool{BaseID: true},
		seenReports: make(map[reportKey]bool),
	}
	return e, nil
}

// Register adds a node to the protocol engine. All network nodes must
// be registered before Tick is called.
func (e *Engine) Register(id netsim.NodeID) error {
	if _, ok := e.nodes[id]; ok {
		return fmt.Errorf("protocol: node %d already registered", id)
	}
	if _, err := e.net.Position(id); err != nil {
		return err
	}
	st := &nodeState{
		id: id, parent: -1, lastSeq: -1, lastFlood: -1 << 30,
		pending:     make(map[reportKey]*pendingReport),
		seenReports: make(map[reportKey]bool),
	}
	if id == BaseID {
		st.synced = true
		st.acked = true
	}
	e.nodes[id] = st
	// In-place sorted insertion: binary search + shift instead of a
	// full re-sort per registration (the old path was O(n² log n) for a
	// fleet of n, the same bulk-registration bug netsim.AddNode had).
	at := sort.Search(len(e.order), func(i int) bool { return e.order[i] >= id })
	e.order = append(e.order, 0)
	copy(e.order[at+1:], e.order[at:])
	e.order[at] = id
	return nil
}

// Distribute loads a schedule into the base station for flooding.
func (e *Engine) Distribute(msg ScheduleMsg) error {
	if msg.Period <= 0 {
		return fmt.Errorf("protocol: non-positive period %d", msg.Period)
	}
	for v, slot := range msg.Assign {
		if slot < -1 || slot >= msg.Period {
			return fmt.Errorf("protocol: sensor %d slot %d outside [-1,%d)", v, slot, msg.Period)
		}
	}
	cp := msg
	cp.Assign = append([]int(nil), msg.Assign...)
	e.schedule = &cp
	e.ackedBy = map[netsim.NodeID]bool{BaseID: true}
	base := e.nodes[BaseID]
	base.schedule = &cp
	return nil
}

// Report queues a sensed reading at a node for convergecast delivery.
func (e *Engine) Report(id netsim.NodeID, slot int, value float64) error {
	st, ok := e.nodes[id]
	if !ok {
		return fmt.Errorf("protocol: unknown node %d", id)
	}
	if id == BaseID {
		e.collect(Report{Origin: id, Seq: st.nextReportSeq, Slot: slot, Value: value})
		st.nextReportSeq++
		return nil
	}
	r := Report{Origin: id, Seq: st.nextReportSeq, Slot: slot, Value: value}
	st.nextReportSeq++
	st.pending[reportKey{r.Origin, r.Seq}] = &pendingReport{report: r, lastSent: -1 << 30}
	return nil
}

func (e *Engine) collect(r Report) {
	key := reportKey{r.Origin, r.Seq}
	if e.seenReports[key] {
		return
	}
	e.seenReports[key] = true
	e.collected = append(e.collected, r)
}

// Tick advances one protocol round: base emissions, inbox processing,
// queued retransmissions, then one network step.
func (e *Engine) Tick() error {
	if len(e.nodes) != e.net.NumNodes() {
		return fmt.Errorf("protocol: %d registered of %d network nodes",
			len(e.nodes), e.net.NumNodes())
	}
	now := e.net.Now()

	// Base station: periodic beacon, periodic schedule re-flood.
	if now%e.cfg.BeaconInterval == 0 {
		e.beaconSeq++
		if err := e.net.Broadcast(BaseID, Beacon{Seq: e.beaconSeq, Slot: e.baseSlot, Hops: 1}); err != nil {
			return err
		}
	}
	if e.schedule != nil && now%e.cfg.RefloodInterval == 0 && !e.AllAcked() {
		if err := e.net.Broadcast(BaseID, *e.schedule); err != nil {
			return err
		}
	}

	// Every node: drain inbox, react, flush outbox. The drain goes
	// through ReceiveInto with the engine's reused buffer — zero
	// allocations per node once the buffer has warmed up.
	for _, id := range e.order {
		st := e.nodes[id]
		msgs, err := e.net.ReceiveInto(id, e.rx)
		if err != nil {
			return err
		}
		e.rx = msgs
		for _, m := range msgs {
			if err := e.handle(st, m); err != nil {
				return err
			}
		}
		for _, payload := range st.outbox {
			if err := e.transmit(st, payload); err != nil {
				return err
			}
		}
		st.outbox = st.outbox[:0]
		if err := e.flushReports(st); err != nil {
			return err
		}
	}

	e.net.Step()
	// Clocks advance every tick: the base authoritatively, synchronized
	// nodes by extrapolation between beacons.
	e.baseSlot++
	for _, id := range e.order {
		if st := e.nodes[id]; st.id != BaseID && st.synced {
			st.slot++
		}
	}
	return nil
}

// transmit routes one payload: beacons and schedules re-broadcast;
// schedule acks unicast to the parent (when known); report acks unicast
// to an explicit neighbor.
func (e *Engine) transmit(st *nodeState, payload any) error {
	switch p := payload.(type) {
	case Beacon, ScheduleMsg:
		return e.net.Broadcast(st.id, p)
	case Ack:
		if st.parent < 0 {
			// No route yet; requeue for the next tick.
			st.outbox = append(st.outbox, p)
			return nil
		}
		if err := e.net.Send(st.id, st.parent, p); err != nil {
			// Parent link broke (should not happen in static fields);
			// drop the parent and requeue.
			st.parent = -1
			st.outbox = append(st.outbox, p)
		}
		return nil
	case addressed:
		return e.net.Send(st.id, p.to, p.payload)
	default:
		return fmt.Errorf("protocol: unknown payload %T", payload)
	}
}

// addressed wraps a payload with an explicit unicast destination.
type addressed struct {
	to      netsim.NodeID
	payload any
}

// flushReports retransmits this node's unacked reports to its current
// parent, oldest-key first for determinism.
func (e *Engine) flushReports(st *nodeState) error {
	if len(st.pending) == 0 || st.parent < 0 {
		return nil
	}
	now := e.net.Now()
	keys := make([]reportKey, 0, len(st.pending))
	for k := range st.pending {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].origin != keys[j].origin {
			return keys[i].origin < keys[j].origin
		}
		return keys[i].seq < keys[j].seq
	})
	for _, k := range keys {
		p := st.pending[k]
		if now-p.lastSent < e.cfg.ReportRetryInterval {
			continue
		}
		if err := e.net.Send(st.id, st.parent, p.report); err != nil {
			st.parent = -1
			return nil
		}
		p.lastSent = now
	}
	return nil
}

func (e *Engine) handle(st *nodeState, m netsim.Message) error {
	switch p := m.Payload.(type) {
	case Beacon:
		if st.id == BaseID {
			return nil
		}
		// Adopt fresher beacons, or shorter routes within a round.
		if p.Seq > st.lastSeq || (p.Seq == st.lastSeq && p.Hops < st.hops) {
			fresh := p.Seq > st.lastSeq
			st.lastSeq = p.Seq
			st.hops = p.Hops
			st.parent = m.From
			st.slot = p.Slot + p.Hops // compensate propagation delay
			st.synced = true
			if fresh {
				st.outbox = append(st.outbox, Beacon{Seq: p.Seq, Slot: p.Slot, Hops: p.Hops + 1})
			}
		}
	case ScheduleMsg:
		if st.id == BaseID {
			return nil
		}
		if st.schedule == nil || p.Version > st.schedule.Version {
			cp := p
			cp.Assign = append([]int(nil), p.Assign...)
			st.schedule = &cp
			st.outbox = append(st.outbox, cp)
			st.lastFlood = e.net.Now()
		} else if p.Version == st.schedule.Version &&
			e.net.Now()-st.lastFlood >= e.cfg.RefloodInterval {
			// Relay the base's periodic refloods (rate-limited) so that
			// nodes whose first wave was lost keep getting copies: the
			// base alone cannot reach beyond its one-hop neighborhood.
			st.outbox = append(st.outbox, *st.schedule)
			st.lastFlood = e.net.Now()
		}
		// Ack every receipt: acks travel over lossy links, so a single
		// ack per version could be lost forever while the base keeps
		// re-flooding. Duplicate acks are idempotent at the base.
		st.outbox = append(st.outbox, Ack{Version: p.Version, Origin: st.id})
		st.acked = true
	case Ack:
		if st.id == BaseID {
			if e.schedule != nil && p.Version == e.schedule.Version {
				e.ackedBy[p.Origin] = true
			}
			return nil
		}
		// Relay toward the base.
		st.outbox = append(st.outbox, p)
	case Report:
		// Hop-by-hop reliability: always ack the transmitting neighbor,
		// forward (once) toward the base.
		st.outbox = append(st.outbox, addressed{
			to:      m.From,
			payload: ReportAck{Origin: p.Origin, Seq: p.Seq},
		})
		if st.id == BaseID {
			e.collect(p)
			return nil
		}
		key := reportKey{p.Origin, p.Seq}
		if !st.seenReports[key] {
			st.seenReports[key] = true
			st.pending[key] = &pendingReport{report: p, lastSent: -1 << 30}
		}
	case ReportAck:
		delete(st.pending, reportKey{p.Origin, p.Seq})
	default:
		return fmt.Errorf("protocol: node %d received unknown payload %T", st.id, m.Payload)
	}
	return nil
}

// AllAcked reports whether every registered node acknowledged the
// current schedule version.
func (e *Engine) AllAcked() bool {
	if e.schedule == nil {
		return false
	}
	for _, id := range e.order {
		if !e.ackedBy[id] {
			return false
		}
	}
	return true
}

// AckedCount returns how many nodes acknowledged the current schedule.
func (e *Engine) AckedCount() int {
	n := 0
	for _, id := range e.order {
		if e.ackedBy[id] {
			n++
		}
	}
	return n
}

// SyncedCount returns how many nodes have a synchronized slot clock.
func (e *Engine) SyncedCount() int {
	n := 0
	for _, id := range e.order {
		if e.nodes[id].synced {
			n++
		}
	}
	return n
}

// NodeSchedule returns the schedule a node currently holds (nil if none).
func (e *Engine) NodeSchedule(id netsim.NodeID) (*ScheduleMsg, error) {
	st, ok := e.nodes[id]
	if !ok {
		return nil, fmt.Errorf("protocol: unknown node %d", id)
	}
	return st.schedule, nil
}

// NodeSlot returns a node's synchronized slot estimate.
func (e *Engine) NodeSlot(id netsim.NodeID) (slot int, synced bool, err error) {
	st, ok := e.nodes[id]
	if !ok {
		return 0, false, fmt.Errorf("protocol: unknown node %d", id)
	}
	if id == BaseID {
		return e.baseSlot, true, nil
	}
	return st.slot, st.synced, nil
}

// Collected returns the reports the base station has received, in
// arrival order.
func (e *Engine) Collected() []Report {
	return append([]Report(nil), e.collected...)
}

// RunUntil ticks the engine until the predicate holds or maxTicks pass.
// It returns the number of ticks executed and whether the predicate was
// satisfied.
func (e *Engine) RunUntil(pred func() bool, maxTicks int) (int, bool, error) {
	for i := 0; i < maxTicks; i++ {
		if pred() {
			return i, true, nil
		}
		if err := e.Tick(); err != nil {
			return i, false, err
		}
	}
	return maxTicks, pred(), nil
}
