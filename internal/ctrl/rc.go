package ctrl

import (
	"repro/internal/policy"
	"repro/internal/sim"
)

// laserSnap is a statistics snapshot of one laser over the previous
// reconfiguration window.
type laserSnap struct {
	linkUtil float64
	bufUtil  float64
	queueLen int
	// dropped counts packets dropped at the laser over the window
	// (always 0 without fault injection).
	dropped uint64
}

// boardMsg is an RC→RC control packet on the electrical ring.
type boardMsg struct {
	response bool // board-response (true) or board-request (false)
	origin   int  // board whose incoming channels the message describes
	// window tags the message for the fault-tolerant exchange: receivers
	// discard messages from older windows.
	window uint64
	// entries is indexed by wavelength (1..B-1).
	entries []chanEntry
	// assign, for board-response messages, is the new holder per
	// wavelength.
	assign []int

	// to is the RC the message is in flight to; deliver, bound once when
	// the record is first allocated, hands it over on arrival.
	to      *RC
	deliver func()
}

// chanEntry describes one incoming channel (origin, w) as seen by the
// boards the request passed through.
type chanEntry struct {
	holder int
	// Holder-reported statistics for its laser (w → origin).
	linkUtil float64
	bufUtil  float64
	queueLen int
	// dead marks the holder's laser permanently failed: the channel is
	// dark and must be repaired onto a surviving laser.
	dead bool
	// ownerDemand is the static owner's buffer utilization toward origin
	// (nonzero when the owner is starving for a channel it lent out).
	ownerDemand float64
	ownerQueue  int
	// ownerDrops counts packets the static owner dropped toward origin
	// over the window: a flow whose only laser died keeps dropping
	// without ever queueing, and this is its demand signal.
	ownerDrops uint64
}

// rcStage is where an RC's Lock-Step program waits between engine
// callbacks.
type rcStage uint8

const (
	stStart         rcStage = iota // started; the first callback sleeps to window 1
	stSleep                        // waiting for the next window boundary
	stPower                        // DPM walk: the Power_Request is travelling to LC lcHop
	stLinkRequest                  // Stage 1: the LC walk is in flight
	stBoardRequest                 // Stage 2: circulating requests, receiving
	stReconfigure                  // Stage 3: computing the new holder map
	stBoardResponse                // Stage 4: circulating responses, receiving
	stLinkResponse                 // Stage 5: the LC programming walk is in flight
)

// RC is one board's reconfiguration controller: plain data advanced by
// engine callbacks. resume continues the program after a delay or an
// inbox wake-up, expire handles a receive deadline, and each message's
// deliver callback fills the inbox.
type RC struct {
	sys   *System
	board int

	// pol decides this board's level moves and wavelength grants; the
	// RC owns applying them safely (see the policy package contracts).
	pol policy.Policy

	st rcStage
	// lcHop is the LC the DPM walk reaches next (B = back at the RC).
	lcHop int
	// start is the cycle the current reconfiguration cycle began.
	start uint64

	// inbox holds delivered messages not yet taken. A circulation takes
	// the first message of its own kind; the other kind stays queued.
	inbox []*boardMsg
	// waiting is set while the RC is parked on its inbox; the first
	// delivery clears it and schedules resume at the same instant.
	waiting bool
	// attempt, timeout and deadline drive the bounded receive of the
	// current circulation (timeout 0: unbounded, no timer); timer is the
	// armed deadline event.
	attempt  int
	timeout  uint64
	deadline uint64
	timer    sim.EventID
	// full is this RC's own request back from the ring, carried from
	// Board Request into Reconfigure.
	full *boardMsg

	resumeFn, expireFn func()

	windows uint64
	// assign is the holder map this RC computed for its incoming
	// channels in its latest Reconfigure; Board Response circulates it
	// and Link Response applies it.
	assign []int
	// snap is the window-snapshot scratch, reused across windows (each
	// window's snapshot is fully consumed before the next one is taken).
	snap [][]laserSnap
	// chanObs is the Reconfigure-stage observation scratch handed to the
	// policy, reused so the stage only allocates the assign map it
	// publishes; bwCtx carries the topology/fabric callbacks, built once.
	chanObs []policy.ChanObs
	bwCtx   policy.BandwidthCtx
}

func newRC(s *System, board int) *RC {
	rc := &RC{sys: s, board: board}
	rc.resumeFn = rc.resume
	rc.expireFn = rc.expire
	rc.chanObs = make([]policy.ChanObs, s.top.Boards())
	rc.bwCtx.StaticOwner = func(w int) int { return s.top.StaticOwner(rc.board, w) }
	rc.bwCtx.LaserHealthy = func(src, w int) bool { return s.fab.LaserHealthy(src, w, rc.board) }
	return rc
}

// Policy returns the RC's reconfiguration policy.
func (rc *RC) Policy() policy.Policy { return rc.pol }

// Board returns the RC's board index.
func (rc *RC) Board() int { return rc.board }

// Windows returns the number of reconfiguration windows processed.
func (rc *RC) Windows() uint64 { return rc.windows }

// delay parks the RC in stage st for d cycles.
func (rc *RC) delay(st rcStage, d uint64) {
	rc.st = st
	rc.sys.eng.After(d, rc.resumeFn)
}

// resume continues the RC's program where it waits.
func (rc *RC) resume() {
	switch rc.st {
	case stStart:
		rc.sleep()
	case stSleep:
		if !rc.openWindow() {
			rc.sleep()
		}
	case stPower:
		rc.powerHop()
	case stLinkRequest:
		rc.sys.stage(rc.board, "board-request")
		rc.circulate(stBoardRequest, rc.newRequest())
	case stBoardRequest, stBoardResponse:
		rc.sys.eng.Cancel(rc.timer) // woken by a delivery: the deadline is moot
		rc.receive()
	case stReconfigure:
		rc.reconfigure()
	case stLinkResponse:
		rc.linkResponse()
	}
}

// sleep parks the RC until its next window boundary: every R_w the RCs
// wake in lock-step. A cycle that overran the boundary (retries under
// ring faults) opens the window at once.
func (rc *RC) sleep() {
	for {
		target := (rc.windows + 1) * rc.sys.cfg.Window
		if now := rc.sys.eng.Now(); target > now {
			rc.delay(stSleep, target-now)
			return
		}
		if rc.openWindow() {
			return
		}
	}
}

// openWindow starts the next window: snapshot the lasers, then begin
// the power (odd) or bandwidth (even) cycle when the mode runs it. It
// reports whether a cycle began.
func (rc *RC) openWindow() bool {
	sys := rc.sys
	rc.windows++
	sys.ctr.Windows++
	rc.snapshotAndReset()
	rc.start = sys.eng.Now()
	if rc.windows%2 == 1 {
		if !sys.cfg.PowerAware {
			return false
		}
		sys.ctr.PowerCycles++
		// Dynamic Power Regulation (Sec. 3.1): the Power_Request walks the
		// LC chain, one LC per transmitter, and returns to the RC.
		sys.stage(rc.board, "power-request")
		rc.lcHop = 1
		rc.delay(stPower, sys.cfg.LCHopCycles)
		return true
	}
	if !sys.cfg.BandwidthReconfig {
		return false
	}
	sys.ctr.BandwidthCyles++
	// Stage 1: Link Request — collect outgoing link statistics. The
	// request visits every LC and returns to the RC.
	sys.stage(rc.board, "link-request")
	rc.delay(stLinkRequest, uint64(sys.top.Boards())*sys.cfg.LCHopCycles)
	return true
}

// finish closes the current reconfiguration cycle, charging its busy
// cycles, and sleeps until the next window.
func (rc *RC) finish() {
	busy := rc.sys.eng.Now() - rc.start
	if rc.windows%2 == 1 {
		rc.sys.ctr.PowerCycleBusy += busy
	} else {
		rc.sys.ctr.BandwidthCycleBusy += busy
	}
	rc.sleep()
}

// snapshotAndReset captures every local laser's window statistics into
// rc.snap (indexed [w][d]) and resets the windows for the next R_w.
func (rc *RC) snapshotAndReset() {
	b := rc.sys.top.Boards()
	// Idle lasers accrue window statistics lazily; bring this board's up
	// to date before reading and resetting the windows (the snapshot only
	// reads local lasers, and every board's RC flushes its own).
	rc.sys.fab.FlushBoardStats(rc.board, rc.sys.eng.Now())
	if rc.snap == nil {
		rc.snap = make([][]laserSnap, b)
		for w := 1; w < b; w++ {
			rc.snap[w] = make([]laserSnap, b)
		}
	}
	snap := rc.snap
	for w := 1; w < b; w++ {
		for d := 0; d < b; d++ {
			l := rc.sys.fab.Laser(rc.board, w, d)
			if l == nil {
				snap[w][d] = laserSnap{}
				continue
			}
			snap[w][d] = laserSnap{
				linkUtil: l.LinkWin.Utilization(),
				bufUtil:  l.BufWin.Utilization(),
				queueLen: l.QueueLen(),
				dropped:  l.TakeDropWindow(),
			}
			l.LinkWin.Reset()
			l.BufWin.Reset()
		}
	}
}

// powerHop runs when the Power_Request reaches LC lcHop: that LC
// consults the policy and scales its lasers locally, and the request
// moves on. At lcHop == B the request is back at the RC, which receives
// no LC state.
func (rc *RC) powerHop() {
	sys := rc.sys
	if rc.lcHop == sys.top.Boards() {
		sys.stage(rc.board, "power-complete")
		rc.finish()
		return
	}
	rc.scaleLasers(rc.lcHop)
	rc.lcHop++
	rc.delay(stPower, sys.cfg.LCHopCycles)
}

// scaleLasers applies the policy's level moves to transmitter w's lasers.
func (rc *RC) scaleLasers(w int) {
	sys := rc.sys
	relock := sys.fab.Config().RelockCycles
	ladder := sys.fab.Config().Ladder
	now := sys.eng.Now()
	for d := 0; d < sys.top.Boards(); d++ {
		l := sys.fab.Laser(rc.board, w, d)
		if l == nil {
			continue
		}
		if sys.fab.Channel(d, w).Holder() != rc.board {
			continue // laser dark: channel driven by another board
		}
		if l.Failed() {
			continue // DPM leaves failed lasers alone until they recover
		}
		st := rc.snap[w][d]
		obs := policy.LinkObs{
			Wavelength: w,
			Dest:       d,
			Level:      l.Level(),
			LinkUtil:   st.linkUtil,
			BufUtil:    st.bufUtil,
			QueueLen:   st.queueLen,
			Dropped:    st.dropped,
			LiveQueue:  l.QueueLen(),
			Busy:       l.Busy(now),
		}
		target := rc.pol.Power(obs)
		if target == obs.Level {
			continue
		}
		switch {
		case target == 0:
			// Shutdown is applied only when the laser is drained and not
			// mid-transmission; otherwise the preference is deferred to a
			// later window (the safety contract).
			if obs.LiveQueue != 0 || obs.QueueLen != 0 || obs.Busy {
				continue
			}
			l.SetLevel(0, now, relock)
			sys.ctr.Shutdowns++
		case !ladder.Operating(target):
			continue // invalid preference: ignored
		case target > obs.Level:
			// Scale up, or a policy-driven pre-wake from Off.
			l.SetLevel(target, now, relock)
			sys.ctr.LevelUps++
		default:
			l.SetLevel(target, now, relock)
			sys.ctr.LevelDowns++
		}
	}
}

// circulate sends this RC's message for a ring stage (Board Request or
// Board Response) and starts receiving: each RC forwards the other
// boards' messages until its own comes back. With RecvTimeoutCycles
// set, every receive is bounded; a timeout re-sends the message with a
// doubled timeout up to RecvRetries times, after which the stage gives
// up (the cycle is abandoned, never wedged).
func (rc *RC) circulate(st rcStage, m *boardMsg) {
	rc.st = st
	rc.send(m)
	rc.attempt = 0
	rc.timeout = rc.sys.cfg.RecvTimeoutCycles
	rc.deadline = rc.sys.eng.Now() + rc.timeout
	rc.receive()
}

// receive handles queued messages of the current stage's kind until the
// circulation completes, then parks the RC on its inbox — bounded by the
// deadline timer when receives time out.
func (rc *RC) receive() {
	for {
		if m := rc.take(); m != nil {
			if rc.handle(m) {
				return
			}
			continue
		}
		if rc.timeout != 0 && rc.deadline <= rc.sys.eng.Now() {
			// Timed out: the timer fired, or the deadline passed while
			// this instant's messages were handled.
			if !rc.retry() {
				return
			}
			continue
		}
		rc.waiting = true
		if rc.timeout != 0 {
			rc.timer = rc.sys.eng.At(rc.deadline, rc.expireFn)
		}
		return
	}
}

// take dequeues the first inbox message of the current stage's kind.
func (rc *RC) take() *boardMsg {
	response := rc.st == stBoardResponse
	for i, m := range rc.inbox {
		if m.response == response {
			copy(rc.inbox[i:], rc.inbox[i+1:])
			rc.inbox[len(rc.inbox)-1] = nil
			rc.inbox = rc.inbox[:len(rc.inbox)-1]
			return m
		}
	}
	return nil
}

// handle processes one received message and reports whether it ended
// the circulation.
func (rc *RC) handle(m *boardMsg) bool {
	sys := rc.sys
	switch {
	case m.window < rc.windows:
		sys.ctr.StaleMsgs++ // leftover from an earlier window
		sys.putMsg(m)
		return false
	case m.origin != rc.board:
		if !m.response {
			rc.fillEntries(m)
		}
		rc.send(m)
		return false
	case m.response:
		sys.putMsg(m)
		rc.linkResponseStage()
		return true
	default:
		// Any attempt of my own request that made it all the way around
		// carries a complete set of entries.
		rc.full = m
		// Stage 3: Reconfigure — hand the assembled channel observations
		// to the policy, which computes the new holder map.
		sys.stage(rc.board, "reconfigure")
		rc.delay(stReconfigure, sys.cfg.ComputeCycles)
		return true
	}
}

// expire fires at a receive deadline. A delivery earlier in this same
// instant has already claimed the wake-up, and the message is taken,
// not timed out; otherwise the inbox holds nothing of the stage's kind
// and receive takes the timeout.
func (rc *RC) expire() {
	if rc.waiting {
		rc.waiting = false
		rc.receive()
	}
}

// retry handles a timed-out receive: it re-sends this RC's message with
// a doubled timeout and reports true, or, with the retry budget spent,
// ends the stage and reports false. A lost Board Request abandons the
// cycle and the fabric keeps its current assignment; a lost Board
// Response is abandoned silently — the local assignment still applies
// in Link Response, and remote boards observe the holder change through
// their own next Board Request.
func (rc *RC) retry() bool {
	sys := rc.sys
	if rc.attempt >= sys.cfg.RecvRetries {
		if rc.st == stBoardResponse {
			rc.linkResponseStage()
		} else {
			sys.ctr.AbandonedCycles++
			sys.stage(rc.board, "abandoned")
			rc.finish()
		}
		return false
	}
	sys.ctr.Timeouts++
	sys.ctr.Retries++
	rc.attempt++
	rc.timeout *= 2
	rc.deadline = sys.eng.Now() + rc.timeout
	if rc.st == stBoardResponse {
		rc.send(rc.newResponse())
	} else {
		rc.send(rc.newRequest())
	}
	return true
}

// reconfigure finishes Stage 3 once the computation time has passed and
// starts Stage 4: Board Response — circulate the new assignments so
// source boards update their outgoing tables.
func (rc *RC) reconfigure() {
	sys := rc.sys
	b := sys.top.Boards()
	full := rc.full
	rc.full = nil
	for w := 1; w < b; w++ {
		e := full.entries[w]
		rc.chanObs[w] = policy.ChanObs{
			Holder:      e.holder,
			LinkUtil:    e.linkUtil,
			BufUtil:     e.bufUtil,
			QueueLen:    e.queueLen,
			Dead:        e.dead,
			OwnerDemand: e.ownerDemand,
			OwnerQueue:  e.ownerQueue,
			OwnerDrops:  e.ownerDrops,
		}
	}
	// assign escapes (the circulated responses), so it is the one
	// per-window allocation; it is handed to the policy pre-filled with
	// the current holder map.
	assign := make([]int, b)
	for w := 1; w < b; w++ {
		assign[w] = full.entries[w].holder
	}
	rc.bwCtx.Window = rc.windows
	rc.bwCtx.Repairs = 0
	rc.assign = rc.pol.Bandwidth(&rc.bwCtx, rc.chanObs, assign)
	sys.ctr.FaultRepairs += uint64(rc.bwCtx.Repairs)
	sys.putMsg(full)

	sys.stage(rc.board, "board-response")
	rc.circulate(stBoardResponse, rc.newResponse())
}

// linkResponseStage starts Stage 5: Link Response — the walk that
// programs the LCs.
func (rc *RC) linkResponseStage() {
	sys := rc.sys
	sys.stage(rc.board, "link-response")
	rc.delay(stLinkResponse, uint64(sys.top.Boards())*sys.cfg.LCHopCycles)
}

// linkResponse applies the new assignment once the walk has reached the
// LCs: lasers switch on/off and receivers re-lock.
func (rc *RC) linkResponse() {
	sys := rc.sys
	b := sys.top.Boards()
	now := sys.eng.Now()
	for w := 1; w < b; w++ {
		newHolder := rc.assign[w]
		if newHolder < 0 || newHolder >= b || newHolder == rc.board {
			continue // invalid grant: ignored (the safety contract)
		}
		ch := sys.fab.Channel(rc.board, w)
		if newHolder == ch.Holder() {
			continue
		}
		wasReclaim := newHolder == sys.top.StaticOwner(rc.board, w)
		if err := sys.fab.Reassign(rc.board, w, newHolder, sys.cfg.AcquireLevel, now); err != nil {
			// The holder accumulated traffic between snapshot and apply;
			// leave the channel in place this window.
			sys.ctr.FailedMoves++
			continue
		}
		sys.ctr.Reassignments++
		if wasReclaim {
			sys.ctr.Reclaims++
		}
	}
	sys.stage(rc.board, "complete")
	rc.finish()
}

// newRequest builds this RC's board-request message for the current
// window, reusing a recycled message when one is free.
func (rc *RC) newRequest() *boardMsg {
	b := rc.sys.top.Boards()
	m := rc.sys.getMsg()
	m.response = false
	m.origin = rc.board
	m.window = rc.windows
	if cap(m.entries) < b {
		m.entries = make([]chanEntry, b)
	} else {
		m.entries = m.entries[:b]
		for i := range m.entries {
			m.entries[i] = chanEntry{}
		}
	}
	for w := 1; w < b; w++ {
		m.entries[w].holder = rc.sys.fab.Channel(rc.board, w).Holder()
	}
	return m
}

// newResponse builds this RC's board-response message carrying its
// latest holder map.
func (rc *RC) newResponse() *boardMsg {
	m := rc.sys.getMsg()
	m.response = true
	m.origin = rc.board
	m.window = rc.windows
	m.assign = rc.assign
	return m
}

// fillEntries adds this board's knowledge to another board's
// board-request: statistics for the incoming channels of m.origin that
// this board currently drives, and the owner-demand field for the
// channel this board statically owns.
func (rc *RC) fillEntries(m *boardMsg) {
	sys := rc.sys
	b := sys.top.Boards()
	for w := 1; w < b; w++ {
		ch := sys.fab.Channel(m.origin, w)
		if ch.Holder() == rc.board {
			st := rc.snap[w][m.origin]
			m.entries[w].holder = rc.board
			m.entries[w].linkUtil = st.linkUtil
			m.entries[w].bufUtil = st.bufUtil
			m.entries[w].queueLen = st.queueLen
			l := sys.fab.Laser(rc.board, w, m.origin)
			m.entries[w].dead = l == nil || l.PermanentlyFailed()
		}
		if sys.top.StaticOwner(m.origin, w) == rc.board {
			st := rc.snap[w][m.origin]
			m.entries[w].ownerDemand = st.bufUtil
			m.entries[w].ownerQueue = st.queueLen
			m.entries[w].ownerDrops = st.dropped
		}
	}
}

// send forwards a message to the next RC on the ring with the hop
// latency. An attached ring-fault filter may drop the message or add
// delay; the healthy path costs one nil check.
func (rc *RC) send(m *boardMsg) {
	sys := rc.sys
	sys.ctr.MessagesSent++
	next := (rc.board + 1) % sys.top.Boards()
	delay := sys.cfg.RingHopCycles
	if sys.ringFault != nil {
		drop, extra := sys.ringFault.FilterRingMsg(rc.board, next, sys.eng.Now())
		if drop {
			return
		}
		delay += extra
	}
	m.to = sys.rcs[next]
	sys.eng.After(delay, m.deliver)
}

// receiveMsg queues an arrived message and wakes the RC if it is parked
// on its inbox. The wake-up is a zero-delay event, so the RC handles the
// message after everything already scheduled for this instant.
func (rc *RC) receiveMsg(m *boardMsg) {
	rc.inbox = append(rc.inbox, m)
	if rc.waiting {
		rc.waiting = false
		rc.sys.eng.After(0, rc.resumeFn)
	}
}
