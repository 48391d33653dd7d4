// Package traffic provides the synthetic traffic patterns and the
// Bernoulli open-loop injection process used in the paper's evaluation
// (Sec. 4): uniform, complement, butterfly and perfect shuffle over
// power-of-two node counts, plus common extensions (transpose, bit
// reversal, tornado, neighbor, hotspot) for wider experiments.
//
// Bit-permutation definitions follow the paper:
//
//	butterfly:        a_{n-1} a_{n-2} … a_1 a_0 → a_0 a_{n-2} … a_1 a_{n-1}
//	complement:       a_{n-1} a_{n-2} … a_1 a_0 → !a_{n-1} !a_{n-2} … !a_0
//	perfect shuffle:  a_{n-1} a_{n-2} … a_1 a_0 → a_{n-2} a_{n-3} … a_0 a_{n-1}
package traffic

import (
	"fmt"
	"math/bits"

	"repro/internal/rng"
)

// Pattern maps a source node to a destination node, possibly randomly.
type Pattern interface {
	// Dest returns the destination for a packet from src. It may consume
	// randomness from s. Dest may return src for patterns whose permutation
	// has fixed points; callers decide whether to skip self-traffic.
	Dest(src int, s *rng.Stream) int
	// Name returns the pattern's canonical name.
	Name() string
}

// Name constants accepted by New.
const (
	Uniform    = "uniform"
	Complement = "complement"
	Butterfly  = "butterfly"
	Shuffle    = "shuffle"
	Transpose  = "transpose"
	BitReverse = "bitreverse"
	Tornado    = "tornado"
	Neighbor   = "neighbor"
	Hotspot    = "hotspot"
	// Remote draws uniformly over the nodes of *other* groups (boards or
	// racks): the inter-group share of a uniform workload. It is the
	// workload a hierarchy's upper tier carries, and what NewGrouped's
	// group parameter exists for.
	Remote = "remote"
)

// Names lists all supported pattern names.
func Names() []string {
	return []string{Uniform, Complement, Butterfly, Shuffle, Transpose, BitReverse, Tornado, Neighbor, Hotspot, Remote}
}

// PaperNames lists the four patterns evaluated in the paper.
func PaperNames() []string {
	return []string{Uniform, Complement, Shuffle, Butterfly}
}

// New constructs a pattern by name for a system of n nodes. Permutation
// patterns require n to be a power of two (as in the paper's 64-node
// evaluation).
func New(name string, n int) (Pattern, error) {
	if n < 2 {
		return nil, fmt.Errorf("traffic: need at least 2 nodes, got %d", n)
	}
	needPow2 := func() error {
		if n&(n-1) != 0 {
			return fmt.Errorf("traffic: pattern %q requires a power-of-two node count, got %d", name, n)
		}
		return nil
	}
	switch name {
	case Uniform:
		return uniform{n: n}, nil
	case Complement:
		if err := needPow2(); err != nil {
			return nil, err
		}
		return bitPattern{n: n, name: Complement, f: complementBits}, nil
	case Butterfly:
		if err := needPow2(); err != nil {
			return nil, err
		}
		return bitPattern{n: n, name: Butterfly, f: butterflyBits}, nil
	case Shuffle:
		if err := needPow2(); err != nil {
			return nil, err
		}
		return bitPattern{n: n, name: Shuffle, f: shuffleBits}, nil
	case Transpose:
		if err := needPow2(); err != nil {
			return nil, err
		}
		return bitPattern{n: n, name: Transpose, f: transposeBits}, nil
	case BitReverse:
		if err := needPow2(); err != nil {
			return nil, err
		}
		return bitPattern{n: n, name: BitReverse, f: reverseBits}, nil
	case Tornado:
		return tornado{n: n}, nil
	case Neighbor:
		return neighbor{n: n}, nil
	case Hotspot:
		return NewHotspot(n, 0, 0.2), nil
	case Remote:
		// Without a topology, every node is its own group: uniform over
		// all nodes but self. NewGrouped supplies the real group size.
		return remote{n: n, group: 1}, nil
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q (known: %v)", name, Names())
	}
}

// NewGrouped constructs a pattern by name for n nodes arranged in
// contiguous groups of the given size (a board's or rack's nodes).
// Only group-aware patterns (remote) consult the group size; all other
// names behave exactly as New.
func NewGrouped(name string, n, group int) (Pattern, error) {
	if name != Remote {
		return New(name, n)
	}
	if group < 1 || n%group != 0 {
		return nil, fmt.Errorf("traffic: remote needs a group size dividing %d nodes, got %d", n, group)
	}
	if n <= group {
		return nil, fmt.Errorf("traffic: remote needs at least 2 groups (%d nodes in groups of %d)", n, group)
	}
	return remote{n: n, group: group}, nil
}

// MustNew is New for statically valid configurations.
func MustNew(name string, n int) Pattern {
	p, err := New(name, n)
	if err != nil {
		panic(err)
	}
	return p
}

type uniform struct{ n int }

func (u uniform) Name() string { return Uniform }

// Dest draws uniformly over all nodes except src.
func (u uniform) Dest(src int, s *rng.Stream) int {
	d := s.Intn(u.n - 1)
	if d >= src {
		d++
	}
	return d
}

// remote draws uniformly over the nodes of other groups: never the
// source's own group, so (for groups = boards) every packet crosses the
// optical fabric, and (for groups = racks) every packet crosses the
// inter-rack tier.
type remote struct{ n, group int }

func (r remote) Name() string { return Remote }

// Dest consumes exactly one draw, like uniform: an index over the
// n-group foreign nodes, shifted past the source's group block.
func (r remote) Dest(src int, s *rng.Stream) int {
	base := src - src%r.group
	d := s.Intn(r.n - r.group)
	if d >= base {
		d += r.group
	}
	return d
}

// bitPattern applies a deterministic bit transformation.
type bitPattern struct {
	n    int
	name string
	f    func(x, nbits int) int
}

func (b bitPattern) Name() string { return b.name }

func (b bitPattern) Dest(src int, _ *rng.Stream) int {
	nb := bits.Len(uint(b.n)) - 1
	return b.f(src, nb)
}

func complementBits(x, nbits int) int { return (^x) & (1<<nbits - 1) }

func butterflyBits(x, nbits int) int {
	if nbits < 2 {
		return x
	}
	msb := (x >> (nbits - 1)) & 1
	lsb := x & 1
	y := x &^ (1 | 1<<(nbits-1))
	y |= msb | lsb<<(nbits-1)
	return y
}

func shuffleBits(x, nbits int) int {
	if nbits < 1 {
		return x
	}
	msb := (x >> (nbits - 1)) & 1
	return ((x << 1) | msb) & (1<<nbits - 1)
}

func transposeBits(x, nbits int) int {
	h := nbits / 2
	lo := x & (1<<h - 1)
	hi := x >> h
	return lo<<(nbits-h) | hi
}

func reverseBits(x, nbits int) int {
	y := 0
	for i := 0; i < nbits; i++ {
		y |= ((x >> i) & 1) << (nbits - 1 - i)
	}
	return y
}

type tornado struct{ n int }

func (t tornado) Name() string { return Tornado }

// Dest sends halfway around the node ring minus one (the classic
// adversarial pattern for rings/tori).
func (t tornado) Dest(src int, _ *rng.Stream) int {
	return (src + (t.n+1)/2 - 1) % t.n
}

type neighbor struct{ n int }

func (nb neighbor) Name() string { return Neighbor }

func (nb neighbor) Dest(src int, _ *rng.Stream) int { return (src + 1) % nb.n }

// HotspotPattern sends a fraction of traffic to a single hot node and the
// rest uniformly.
type HotspotPattern struct {
	n        int
	hot      int
	fraction float64
}

// NewHotspot builds a hotspot pattern: fraction of packets target node
// hot, the remainder is uniform over the other nodes.
func NewHotspot(n, hot int, fraction float64) *HotspotPattern {
	if hot < 0 || hot >= n {
		panic(fmt.Sprintf("traffic: hotspot node %d out of range [0,%d)", hot, n))
	}
	if fraction < 0 || fraction > 1 {
		panic(fmt.Sprintf("traffic: hotspot fraction %v out of [0,1]", fraction))
	}
	return &HotspotPattern{n: n, hot: hot, fraction: fraction}
}

func (h *HotspotPattern) Name() string { return Hotspot }

func (h *HotspotPattern) Dest(src int, s *rng.Stream) int {
	if src != h.hot && s.Bernoulli(h.fraction) {
		return h.hot
	}
	d := s.Intn(h.n - 1)
	if d >= src {
		d++
	}
	return d
}

// Injector drives one node's Bernoulli open-loop injection process: each
// cycle a packet is generated with probability Rate (packets/node/cycle).
type Injector struct {
	Src     int
	Rate    float64
	Pattern Pattern
	rng     *rng.Stream
	// SkipSelf drops generated packets whose destination equals the source
	// (deterministic patterns can have fixed points; the paper's patterns
	// have none at 64 nodes, but uniform already excludes self).
	SkipSelf bool
}

// NewInjector builds an injector for node src with its own derived
// random stream.
func NewInjector(src int, rate float64, p Pattern, master *rng.Stream) *Injector {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("traffic: injection rate %v out of [0,1] packets/node/cycle", rate))
	}
	return &Injector{
		Src:      src,
		Rate:     rate,
		Pattern:  p,
		rng:      master.Derive(uint64(src) + 1),
		SkipSelf: true,
	}
}

// State is an opaque snapshot of an injection source's stochastic state:
// the RNG stream plus any modulation state (the bursty ON/OFF flag). A
// source restored to a saved state replays exactly the decisions it made
// after the snapshot, which is what lets the engine's idle fast-forward
// draw ahead and rewind to the first firing cycle.
type State struct {
	rng [4]uint64
	on  bool
}

// Save returns a snapshot of the injector's stochastic state.
func (in *Injector) Save() State { return State{rng: in.rng.State()} }

// Restore rewinds the injector to a previously saved state.
func (in *Injector) Restore(st State) { in.rng.SetState(st.rng) }

// Step advances one cycle. It returns (dst, true) when a packet is
// injected this cycle.
func (in *Injector) Step() (dst int, inject bool) {
	if !in.rng.Bernoulli(in.Rate) {
		return 0, false
	}
	d := in.Pattern.Dest(in.Src, in.rng)
	if in.SkipSelf && d == in.Src {
		return 0, false
	}
	return d, true
}

// Source is anything producing per-cycle injection decisions: the plain
// Bernoulli Injector or the bursty Markov-modulated variant.
type Source interface {
	// Step advances one cycle, returning (dst, true) on injection.
	Step() (dst int, inject bool)
	// Save snapshots the source's stochastic state; Restore rewinds to a
	// saved snapshot so the same decisions replay deterministically.
	Save() State
	Restore(State)
}

// BurstyInjector is a two-state Markov-modulated Bernoulli process: the
// node alternates between ON periods (geometric, mean BurstLen cycles)
// injecting at an elevated rate, and OFF periods injecting nothing,
// while matching a target long-run mean rate. Burstiness stresses the
// responsiveness of history-based reconfiguration (the paper's R_w
// discussion: "the reconfiguration algorithm is responsive to transient
// traffic changes").
type BurstyInjector struct {
	Src      int
	Mean     float64 // long-run packets/node/cycle
	Duty     float64 // fraction of time ON
	BurstLen float64 // mean ON duration in cycles
	Pattern  Pattern

	rng      *rng.Stream
	on       bool
	pOn      float64 // injection probability while ON
	pExitOn  float64 // ON → OFF per cycle
	pExitOff float64 // OFF → ON per cycle
	SkipSelf bool
}

// NewBurstyInjector builds a bursty source. duty must be in (0, 1]; the
// ON-state rate mean/duty must not exceed 1.
func NewBurstyInjector(src int, mean, duty, burstLen float64, p Pattern, master *rng.Stream) *BurstyInjector {
	if mean < 0 || mean > 1 {
		panic(fmt.Sprintf("traffic: mean rate %v out of [0,1]", mean))
	}
	if duty <= 0 || duty > 1 {
		panic(fmt.Sprintf("traffic: duty %v out of (0,1]", duty))
	}
	if burstLen < 1 {
		panic(fmt.Sprintf("traffic: burst length %v < 1 cycle", burstLen))
	}
	pOn := mean / duty
	if pOn > 1 {
		panic(fmt.Sprintf("traffic: ON-state rate %v exceeds 1 (mean %v / duty %v)", pOn, mean, duty))
	}
	offLen := burstLen * (1 - duty) / duty
	b := &BurstyInjector{
		Src: src, Mean: mean, Duty: duty, BurstLen: burstLen, Pattern: p,
		rng:      master.Derive(uint64(src)+1, 0xb0457),
		on:       true,
		pOn:      pOn,
		pExitOn:  1 / burstLen,
		SkipSelf: true,
	}
	if offLen > 0 {
		b.pExitOff = 1 / offLen
	} else {
		b.pExitOff = 1 // duty 1: never actually off
	}
	return b
}

// SetMean retargets the long-run rate, keeping duty and burst length.
func (b *BurstyInjector) SetMean(mean float64) {
	pOn := mean / b.Duty
	if mean < 0 || pOn > 1 {
		panic(fmt.Sprintf("traffic: mean %v unreachable at duty %v", mean, b.Duty))
	}
	b.Mean = mean
	b.pOn = pOn
}

// Save implements Source: the snapshot captures both the RNG stream and
// the Markov ON/OFF state, which together determine every future draw.
func (b *BurstyInjector) Save() State { return State{rng: b.rng.State(), on: b.on} }

// Restore implements Source.
func (b *BurstyInjector) Restore(st State) {
	b.rng.SetState(st.rng)
	b.on = st.on
}

// Step implements Source.
func (b *BurstyInjector) Step() (dst int, inject bool) {
	if b.on {
		if b.rng.Bernoulli(b.pExitOn) {
			b.on = false
		}
	} else if b.rng.Bernoulli(b.pExitOff) {
		b.on = true
	}
	if !b.on || !b.rng.Bernoulli(b.pOn) {
		return 0, false
	}
	d := b.Pattern.Dest(b.Src, b.rng)
	if b.SkipSelf && d == b.Src {
		return 0, false
	}
	return d, true
}
