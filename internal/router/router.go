// Package router implements the electrical intra-board interconnect
// (IBI) of E-RAPID as a cycle-accurate input-queued virtual-channel
// router, following the paper's Sec. 2.1 and Table 1 (SGI-Spider-style
// parameters): per-packet route computation (RC) and virtual-channel
// allocation (VA), per-flit switch allocation (SA) and switch traversal
// (ST), each taking one router clock cycle, with credit-based flow
// control and single-flit buffers by default.
package router

import (
	"fmt"

	"repro/internal/flit"
)

// Sink consumes flits. readyAt is the first cycle the flit may be acted
// upon downstream (arrival stamp); it must be strictly greater than the
// sending cycle so that transfers never ripple within one cycle.
type Sink interface {
	PutFlit(f *flit.Flit, readyAt uint64)
}

// CreditSink consumes flow-control credits, with the same stamp rule.
type CreditSink interface {
	PutCredit(vc int, readyAt uint64)
}

// RouteFunc maps a packet to an output port. It is consulted once per
// packet at RC time. It must return a valid output port; dynamic
// bandwidth re-allocation is expressed by returning different transmitter
// ports over time.
type RouteFunc func(p *flit.Packet) int

// VCClassFunc restricts which output VC a packet may be allocated on a
// given output port. Returning a negative class allows any VC; a
// non-negative class c restricts allocation to VCs v with v % classes ==
// c, where classes is the ClassCount of the config. Deadlock-avoidance
// schemes (e.g. dateline routing on rings/tori) are built on this hook.
type VCClassFunc func(p *flit.Packet, outPort int) int

// Config parameterizes a router.
type Config struct {
	Name    string
	Inputs  int
	Outputs int
	// VCs is the number of virtual channels per input port.
	VCs int
	// BufDepth is the per-VC input buffer depth in flits (1 in Table 1).
	BufDepth int
	// Route computes the output port for each packet.
	Route RouteFunc
	// VCClass, when non-nil, restricts output VC allocation per packet
	// (see VCClassFunc). ClassCount gives the number of classes and must
	// divide the downstream VC count on every connected output.
	VCClass    VCClassFunc
	ClassCount int
}

func (c Config) validate() error {
	switch {
	case c.Inputs < 1 || c.Outputs < 1:
		return fmt.Errorf("router %q: need >=1 input and output, got %d/%d", c.Name, c.Inputs, c.Outputs)
	case c.VCs < 1:
		return fmt.Errorf("router %q: need >=1 VC, got %d", c.Name, c.VCs)
	case c.BufDepth < 1:
		return fmt.Errorf("router %q: need buffer depth >=1, got %d", c.Name, c.BufDepth)
	case c.Route == nil:
		return fmt.Errorf("router %q: nil route function", c.Name)
	case c.VCClass != nil && c.ClassCount < 1:
		return fmt.Errorf("router %q: VCClass requires ClassCount >= 1", c.Name)
	}
	return nil
}

// OutputLink describes the channel attached to an output port.
type OutputLink struct {
	Sink Sink
	// FlitCycles is the serialization time of one flit on the channel
	// (4 cycles for a 64-bit flit on a 16-bit 400 MHz channel).
	FlitCycles uint64
	// ExtraDelay is additional propagation delay added to arrival stamps.
	ExtraDelay uint64
	// DownVCs and DownDepth describe the downstream buffer organization
	// for credit initialization.
	DownVCs   int
	DownDepth int
}

type vcStage uint8

const (
	vcIdle vcStage = iota
	vcRouting
	vcWaitVC
	vcActive
)

type bufEntry struct {
	f       *flit.Flit
	readyAt uint64
}

// inVC is the state of one input virtual channel.
type inVC struct {
	buf        []bufEntry
	stage      vcStage
	stageReady uint64
	outPort    int
	outVC      int
	// vcClass restricts the VA stage (-1 = any VC).
	vcClass int
}

type outVCState struct {
	allocated bool
	inPort    int
	inVC      int
	credits   int
}

type outPort struct {
	link       OutputLink
	vcs        []outVCState
	nextFreeAt uint64
	rrVC       int // round-robin pointer for VC allocation
	rrIn       int // round-robin pointer for switch allocation
	// pendingCredits are credits from downstream not yet visible.
	pendingCredits []creditEntry
}

type creditEntry struct {
	vc      int
	readyAt uint64
}

// Counters aggregates router activity for tests and reports.
type Counters struct {
	FlitsIn     uint64
	FlitsOut    uint64
	PacketsOut  uint64
	SAGrants    uint64
	SAConflicts uint64 // cycles an input VC requested SA and lost
	VAStalls    uint64 // cycles a header waited for an output VC
	CreditStall uint64 // SA requests suppressed for lack of credits
}

// vaReq is one input VC waiting for an output VC this cycle.
type vaReq struct{ inPort, inVC, out int }

// nomination is one input port's SA stage-1 winner.
type nomination struct{ inPort, inVC, out int }

// Router is a cycle-accurate input-queued VC router. Drive it by calling
// Tick exactly once per cycle with a monotonically increasing cycle
// number.
//
// The router keeps O(1) activity counters (buffered flits, non-idle VCs,
// pending credits) so each pipeline stage — and, via HasWork, the whole
// Tick — can be skipped when it provably has nothing to do. The visit
// order of ports and VCs within a stage is unchanged, so arbitration
// outcomes are bit-identical to the exhaustive scan.
type Router struct {
	cfg  Config
	ins  [][]*inVC // [port][vc]
	outs []*outPort
	// inputCreditSinks receive credits for freed input buffer slots.
	inputCreditSinks []CreditSink
	rrInVC           []int // per input port: round-robin over VCs for SA stage 1
	ctr              Counters

	// Activity counters for stage skipping.
	bufTotal   int   // flits buffered across all input VCs
	activeVCs  int   // input VCs with stage != vcIdle
	portActive []int // per input port: VCs with stage != vcIdle
	vaWaiting  int   // input VCs in vcWaitVC
	credTotal  int   // immature credit entries across all outputs

	// Per-tick scratch buffers (no steady-state allocation).
	reqScratch []vaReq
	reqSubset  []vaReq
	outReqs    []int // per output: waiting VA requests this cycle
	nomScratch []nomination
	saBest     []int // per output: index into nomScratch of the SA winner
	saCount    []int // per output: nominations this cycle
}

// New builds a router from a validated config.
func New(cfg Config) (*Router, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &Router{cfg: cfg}
	// The per-VC and per-port state lives in two contiguous slabs so one
	// router's working set stays cache-local instead of scattered across
	// the heap.
	vcSlab := make([]inVC, cfg.Inputs*cfg.VCs)
	r.ins = make([][]*inVC, cfg.Inputs)
	for p := range r.ins {
		r.ins[p] = make([]*inVC, cfg.VCs)
		for v := range r.ins[p] {
			iv := &vcSlab[p*cfg.VCs+v]
			// Buffers hold at most BufDepth flits (the credit protocol
			// enforces it), so full pre-sizing removes all growth allocs.
			iv.buf = make([]bufEntry, 0, cfg.BufDepth)
			r.ins[p][v] = iv
		}
	}
	outSlab := make([]outPort, cfg.Outputs)
	r.outs = make([]*outPort, cfg.Outputs)
	for p := range r.outs {
		r.outs[p] = &outSlab[p]
	}
	r.inputCreditSinks = make([]CreditSink, cfg.Inputs)
	r.rrInVC = make([]int, cfg.Inputs)
	r.portActive = make([]int, cfg.Inputs)
	r.outReqs = make([]int, cfg.Outputs)
	r.saBest = make([]int, cfg.Outputs)
	r.saCount = make([]int, cfg.Outputs)
	// Scratch capacities are bounded by the request populations (every
	// input VC at once for VA, one nomination per input for SA).
	r.reqScratch = make([]vaReq, 0, cfg.Inputs*cfg.VCs)
	r.reqSubset = make([]vaReq, 0, cfg.Inputs*cfg.VCs)
	r.nomScratch = make([]nomination, 0, cfg.Inputs)
	return r, nil
}

// MustNew is New for statically valid configurations.
func MustNew(cfg Config) *Router {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Name returns the router's configured name.
func (r *Router) Name() string { return r.cfg.Name }

// Reset rewinds the router to its post-ConnectOutput state: input
// buffers emptied, pipeline stages idle, round-robin pointers rewound,
// downstream credits restored to full and counters zeroed. Output links
// and input credit sinks stay attached, so a wired router can be reused
// across runs without reconstruction.
func (r *Router) Reset() {
	for p := range r.ins {
		for _, vc := range r.ins[p] {
			for i := range vc.buf {
				vc.buf[i] = bufEntry{}
			}
			vc.buf = vc.buf[:0]
			vc.stage = vcIdle
			vc.stageReady = 0
			vc.outPort, vc.outVC, vc.vcClass = 0, 0, 0
		}
		r.rrInVC[p] = 0
		r.portActive[p] = 0
	}
	for _, op := range r.outs {
		for v := range op.vcs {
			op.vcs[v] = outVCState{credits: op.link.DownDepth}
		}
		op.nextFreeAt = 0
		op.rrVC, op.rrIn = 0, 0
		op.pendingCredits = op.pendingCredits[:0]
	}
	r.ctr = Counters{}
	r.bufTotal, r.activeVCs, r.vaWaiting, r.credTotal = 0, 0, 0, 0
}

// Counters returns a snapshot of activity counters.
func (r *Router) Counters() Counters { return r.ctr }

// ConnectOutput attaches a channel to output port p. Must be called for
// every output port before the first Tick.
func (r *Router) ConnectOutput(p int, link OutputLink) {
	if link.Sink == nil {
		panic(fmt.Sprintf("router %q: nil sink on output %d", r.cfg.Name, p))
	}
	if link.DownVCs < 1 || link.DownDepth < 1 {
		panic(fmt.Sprintf("router %q: output %d needs downstream VCs/depth >= 1", r.cfg.Name, p))
	}
	if link.FlitCycles == 0 {
		link.FlitCycles = 1
	}
	op := r.outs[p]
	op.link = link
	op.vcs = make([]outVCState, link.DownVCs)
	for v := range op.vcs {
		op.vcs[v].credits = link.DownDepth
	}
	// At most every downstream buffer slot's credit can be in flight at
	// once, so the pending list never regrows after this.
	op.pendingCredits = make([]creditEntry, 0, link.DownVCs*link.DownDepth)
}

// SetInputCreditSink registers where credits for input port p's freed
// buffer slots are delivered (the upstream transmitter).
func (r *Router) SetInputCreditSink(p int, cs CreditSink) {
	r.inputCreditSinks[p] = cs
}

// inputSink adapts one input port to the Sink interface.
type inputSink struct {
	r    *Router
	port int
}

// PutFlit enqueues a flit into the input buffer for its VC. The upstream
// sender is responsible for respecting credits; overflow indicates a
// flow-control bug and panics.
func (s inputSink) PutFlit(f *flit.Flit, readyAt uint64) {
	r := s.r
	if f.VC < 0 || f.VC >= r.cfg.VCs {
		panic(fmt.Sprintf("router %q: flit on invalid VC %d at input %d", r.cfg.Name, f.VC, s.port))
	}
	vc := r.ins[s.port][f.VC]
	if len(vc.buf) >= r.cfg.BufDepth {
		panic(fmt.Sprintf("router %q: input %d VC %d overflow (credit protocol violated)", r.cfg.Name, s.port, f.VC))
	}
	vc.buf = append(vc.buf, bufEntry{f: f, readyAt: readyAt})
	r.bufTotal++
	r.ctr.FlitsIn++
}

// InputSink returns the flit sink for input port p.
func (r *Router) InputSink(p int) Sink { return inputSink{r: r, port: p} }

// creditSink adapts one output port to the CreditSink interface.
type creditSink struct {
	r    *Router
	port int
}

// PutCredit returns one downstream buffer slot on the given VC.
func (s creditSink) PutCredit(vc int, readyAt uint64) {
	op := s.r.outs[s.port]
	op.pendingCredits = append(op.pendingCredits, creditEntry{vc: vc, readyAt: readyAt})
	s.r.credTotal++
}

// CreditSink returns the credit sink for output port p (handed to the
// downstream receiver).
func (r *Router) CreditSink(p int) CreditSink { return creditSink{r: r, port: p} }

// HasWork reports whether Tick could change any state this cycle: flits
// buffered, packets mid-pipeline, or credits waiting to mature. O(1).
func (r *Router) HasWork() bool {
	return r.bufTotal > 0 || r.activeVCs > 0 || r.credTotal > 0
}

// BufferedTotal returns the number of flits buffered across all input
// VCs. O(1): it reads the maintained activity counter, so telemetry can
// sample buffer occupancy every window without scanning ports.
func (r *Router) BufferedTotal() int { return r.bufTotal }

// Tick advances the router one cycle. now must increase by exactly one
// between calls for utilization accounting to be meaningful.
func (r *Router) Tick(now uint64) {
	if r.credTotal > 0 {
		r.absorbCredits(now)
	}
	if r.bufTotal > 0 {
		r.routeCompute(now)
	}
	if r.vaWaiting > 0 {
		r.vcAllocate(now)
	}
	if r.activeVCs > 0 {
		r.switchAllocateAndTraverse(now)
	}
}

// absorbCredits makes matured credits visible to the allocators.
func (r *Router) absorbCredits(now uint64) {
	for _, op := range r.outs {
		if len(op.pendingCredits) == 0 {
			continue
		}
		kept := op.pendingCredits[:0]
		for _, ce := range op.pendingCredits {
			if ce.readyAt <= now {
				op.vcs[ce.vc].credits++
				r.credTotal--
				if op.vcs[ce.vc].credits > op.link.DownDepth {
					panic(fmt.Sprintf("router %q: credit overflow on output", r.cfg.Name))
				}
			} else {
				kept = append(kept, ce)
			}
		}
		op.pendingCredits = kept
	}
}

// routeCompute starts the RC stage for idle VCs whose head flit arrived.
func (r *Router) routeCompute(now uint64) {
	for p := range r.ins {
		for v, vc := range r.ins[p] {
			if vc.stage != vcIdle || len(vc.buf) == 0 {
				continue
			}
			head := vc.buf[0]
			if head.readyAt > now {
				continue
			}
			if !head.f.IsHead() {
				panic(fmt.Sprintf("router %q: non-head flit %v at idle VC %d.%d", r.cfg.Name, head.f, p, v))
			}
			out := r.cfg.Route(head.f.Packet)
			if out < 0 || out >= r.cfg.Outputs {
				panic(fmt.Sprintf("router %q: route for %v returned invalid port %d", r.cfg.Name, head.f.Packet, out))
			}
			vc.outPort = out
			vc.vcClass = -1
			if r.cfg.VCClass != nil {
				vc.vcClass = r.cfg.VCClass(head.f.Packet, out)
			}
			vc.stage = vcWaitVC
			vc.stageReady = now + 1 // RC occupies this cycle
			r.activeVCs++
			r.portActive[p]++
			r.vaWaiting++
		}
	}
}

// vcAllocate grants free output VCs to waiting headers, one per output
// VC per cycle, with round-robin priority across input VCs.
//
// Requests are gathered in one pass over the inputs (in (port, VC) order,
// matching the per-output scan of the exhaustive version) into persistent
// scratch buffers, then outputs are served in ascending order. A grant on
// one output never changes another output's request set or round-robin
// state, so the arbitration outcome is identical to scanning all inputs
// once per output.
func (r *Router) vcAllocate(now uint64) {
	reqs := r.reqScratch[:0]
	for p := range r.ins {
		if r.portActive[p] == 0 {
			continue
		}
		for v, vc := range r.ins[p] {
			if vc.stage == vcWaitVC && vc.stageReady <= now {
				reqs = append(reqs, vaReq{inPort: p, inVC: v, out: vc.outPort})
				r.outReqs[vc.outPort]++
			}
		}
	}
	r.reqScratch = reqs
	for op := 0; op < r.cfg.Outputs; op++ {
		if r.outReqs[op] == 0 {
			continue
		}
		r.outReqs[op] = 0
		sub := r.reqSubset[:0]
		for _, rq := range reqs {
			if rq.out == op {
				sub = append(sub, rq)
			}
		}
		r.reqSubset = sub
		out := r.outs[op]
		// Grant each request the first admissible free output VC,
		// round-robin across requesters for fairness across cycles.
		granted := 0
		for ri := 0; ri < len(sub); ri++ {
			rq := sub[(ri+out.rrIn)%len(sub)]
			ivc := r.ins[rq.inPort][rq.inVC]
			v := r.freeOutVC(out, ivc.vcClass)
			if v < 0 {
				continue
			}
			out.vcs[v] = outVCState{allocated: true, inPort: rq.inPort, inVC: rq.inVC, credits: out.vcs[v].credits}
			ivc.outVC = v
			ivc.stage = vcActive
			ivc.stageReady = now + 1 // VA occupies this cycle
			r.vaWaiting--
			granted++
		}
		if granted < len(sub) {
			r.ctr.VAStalls += uint64(len(sub) - granted)
		}
		out.rrVC = (out.rrVC + 1) % len(out.vcs)
		out.rrIn = (out.rrIn + 1) % r.cfg.Inputs
	}
}

// freeOutVC returns a free output VC admissible for the given class
// (-1 = any), scanning from the output's round-robin pointer, or -1.
func (r *Router) freeOutVC(out *outPort, class int) int {
	n := len(out.vcs)
	for dv := 0; dv < n; dv++ {
		v := (out.rrVC + dv) % n
		if out.vcs[v].allocated {
			continue
		}
		if class >= 0 && v%r.cfg.ClassCount != class {
			continue
		}
		return v
	}
	return -1
}

// switchAllocateAndTraverse performs separable SA (input stage then
// output stage) and moves the granted flits onto their output channels.
func (r *Router) switchAllocateAndTraverse(now uint64) {
	// Stage 1: each input port nominates one requesting VC (round-robin).
	// Ports with no non-idle VC cannot nominate and are skipped outright.
	noms := r.nomScratch[:0]
	for p := range r.ins {
		if r.portActive[p] == 0 {
			continue
		}
		chosen := -1
		nvc := r.cfg.VCs
		for dv := 0; dv < nvc; dv++ {
			v := (r.rrInVC[p] + dv) % nvc
			vc := r.ins[p][v]
			if !r.saEligible(vc, now) {
				continue
			}
			chosen = v
			break
		}
		if chosen >= 0 {
			noms = append(noms, nomination{inPort: p, inVC: chosen, out: r.ins[p][chosen].outPort})
			r.rrInVC[p] = (chosen + 1) % nvc
		}
	}
	r.nomScratch = noms
	if len(noms) == 0 {
		return
	}
	// Stage 2: each output port grants one nomination (round-robin by
	// input port index). Winners per output are found in one pass over
	// the nominations; since a grant only mutates its own output's state,
	// precomputing all winners matches the per-output scan exactly.
	for i := range noms {
		op := noms[i].out
		if r.saCount[op] == 0 {
			r.saBest[op] = i
		} else {
			out := r.outs[op]
			// Priority: smallest (inPort - rrIn) mod Inputs wins.
			cur := noms[r.saBest[op]]
			curKey := ((cur.inPort - out.rrIn) + r.cfg.Inputs) % r.cfg.Inputs
			key := ((noms[i].inPort - out.rrIn) + r.cfg.Inputs) % r.cfg.Inputs
			if key < curKey {
				r.saBest[op] = i
			}
		}
		r.saCount[op]++
	}
	for op := 0; op < r.cfg.Outputs; op++ {
		c := r.saCount[op]
		if c == 0 {
			continue
		}
		r.saCount[op] = 0
		// Losers on this output count as conflicts.
		r.ctr.SAConflicts += uint64(c - 1)
		nm := noms[r.saBest[op]]
		r.traverse(nm.inPort, nm.inVC, now)
		r.outs[op].rrIn = (nm.inPort + 1) % r.cfg.Inputs
	}
}

// saEligible reports whether an input VC can request the switch this
// cycle: active, stage delay elapsed, flit present and mature, credits
// available, and the output channel idle.
func (r *Router) saEligible(vc *inVC, now uint64) bool {
	if vc.stage != vcActive || vc.stageReady > now || len(vc.buf) == 0 {
		return false
	}
	if vc.buf[0].readyAt > now {
		return false
	}
	out := r.outs[vc.outPort]
	if out.nextFreeAt > now {
		return false
	}
	if out.vcs[vc.outVC].credits <= 0 {
		r.ctr.CreditStall++
		return false
	}
	return true
}

// traverse moves the head flit of (inPort, inVC) onto its output channel.
func (r *Router) traverse(inPort, inVC int, now uint64) {
	vc := r.ins[inPort][inVC]
	entry := vc.buf[0]
	copy(vc.buf, vc.buf[1:])
	vc.buf = vc.buf[:len(vc.buf)-1]
	r.bufTotal--

	out := r.outs[vc.outPort]
	f := entry.f
	f.VC = vc.outVC
	out.vcs[vc.outVC].credits--
	out.nextFreeAt = now + out.link.FlitCycles
	arrival := now + out.link.FlitCycles + out.link.ExtraDelay
	if arrival <= now {
		arrival = now + 1
	}
	out.link.Sink.PutFlit(f, arrival)
	r.ctr.FlitsOut++
	r.ctr.SAGrants++

	// Return the freed input buffer slot upstream (1-cycle credit delay,
	// Table 1).
	if cs := r.inputCreditSinks[inPort]; cs != nil {
		cs.PutCredit(inVC, now+1)
	}

	if f.IsTail() {
		// Release the output VC and the input VC.
		out.vcs[vc.outVC].allocated = false
		vc.stage = vcIdle
		r.activeVCs--
		r.portActive[inPort]--
		r.ctr.PacketsOut++
	}
}

// OutputBusy reports whether output port p is serializing a flit at now.
func (r *Router) OutputBusy(p int, now uint64) bool {
	return r.outs[p].nextFreeAt > now
}

// BufferedFlits returns the number of flits currently buffered at input
// port p across all VCs (for utilization statistics).
func (r *Router) BufferedFlits(p int) int {
	n := 0
	for _, vc := range r.ins[p] {
		n += len(vc.buf)
	}
	return n
}

// Quiescent reports whether the router holds no flits and no in-flight
// allocations (used by drain checks in tests).
func (r *Router) Quiescent() bool {
	for p := range r.ins {
		for _, vc := range r.ins[p] {
			if len(vc.buf) > 0 || vc.stage != vcIdle {
				return false
			}
		}
	}
	return true
}
