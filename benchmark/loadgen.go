package main

import (
	"encoding/binary"
	"math"
)

// The benchmark owns its load generator: a later change to internal/workload
// must not be able to change the load this benchmark offers.

// rng is SplitMix64.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform int in [0, n); n must be below 2^32.
func (r *rng) intn(n int) int { return int((r.next() >> 32) * uint64(n) >> 32) }

// zipf draws ranks in [0, n) with the YCSB zipfian generator (theta 0.99).
// Rank 0 is the hottest. Callers scatter ranks over the key space with
// scatter so the hot keys are not neighbours.
type zipf struct {
	n, alpha, zetan, zeta2, eta float64
}

const zipfTheta = 0.99

func newZipf(n int) *zipf {
	z := &zipf{n: float64(n), alpha: 1 / (1 - zipfTheta), zeta2: 1 + math.Pow(0.5, zipfTheta)}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), zipfTheta)
	}
	z.eta = (1 - math.Pow(2/z.n, 1-zipfTheta)) / (1 - z.zeta2/z.zetan)
	return z
}

func (z *zipf) rank(r *rng) int {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.zeta2 {
		return 1
	}
	k := int(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= int(z.n) {
		k = int(z.n) - 1
	}
	return k
}

// scatter maps a rank onto [0, n) bijectively (2^31-1 is prime, so it is
// coprime to every n below it).
func scatter(rank, n int) uint32 { return uint32(uint64(rank) * 2147483647 % uint64(n)) }

// Keys are 16 bytes: "key" and 13 decimal digits, so byte order is numeric
// order. A stored key idx has number 2*idx; 2*idx+1 is never written, which
// gives absent-key lookups that fall inside the tables' key ranges and so
// exercise the Bloom filters rather than the key-range pruning.
const keyLen = 16

func putKey(dst []byte, idx uint32, absent bool) {
	num := uint64(idx) * 2
	if absent {
		num++
	}
	dst[0], dst[1], dst[2] = 'k', 'e', 'y'
	for i := keyLen - 1; i >= 3; i-- {
		dst[i] = byte('0' + num%10)
		num /= 10
	}
}

// parseKey inverts putKey for stored (even) keys.
func parseKey(k []byte) (idx uint32, ok bool) {
	if len(k) != keyLen || k[0] != 'k' || k[1] != 'e' || k[2] != 'y' {
		return 0, false
	}
	var num uint64
	for _, c := range k[3:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		num = num*10 + uint64(c-'0')
	}
	if num%2 != 0 || num/2 > math.MaxUint32 {
		return 0, false
	}
	return uint32(num / 2), true
}

// fillValue writes the value of version tick of key idx: the tick (which
// is also the secondary delete key), the idx, then filler that is a pure
// function of both, so the oracle can regenerate and compare every byte.
func fillValue(dst []byte, idx, tick uint32) {
	binary.BigEndian.PutUint64(dst[0:], uint64(tick))
	binary.BigEndian.PutUint64(dst[8:], uint64(idx))
	r := rng{s: uint64(idx)<<32 | uint64(tick)}
	i := 16
	for ; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], r.next())
	}
	if i < len(dst) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], r.next())
		copy(dst[i:], tail[:])
	}
}

// deleteKeyOf is the DeleteKeyFunc every workload installs: the value's
// leading tick. It is acherond's extractor.
func deleteKeyOf(v []byte) uint64 {
	if len(v) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

type opKind uint8

const (
	opPut opKind = iota
	opDelete
	opGet
	opScan
	opRangeDelete
	numOpKinds
)

// op is one generated operation. Every key is named by its index; absent
// marks a Get of the never-written odd neighbour.
type op struct {
	kind   opKind
	absent bool
	idx    uint32
	n      int    // scan length
	lo, hi uint64 // range delete bounds on the delete key
}

// mix is a cumulative op mix in parts per thousand.
type mix struct {
	insert, update, del, getHit, getAbsent, scan int
}

// gen produces a workload's op stream from a seed. It is a pure function of
// (seed, its configuration, the tick it is asked for): the engine under test
// never feeds back into it.
type gen struct {
	r       rng
	z       *zipf
	keys    int // key indices are [0, keys)
	mod     uint32
	res     uint32 // emitted idx is always ≡ res (mod mod)
	mix     mix
	scanLen int

	// kiwi_retention: reads target recently written keys.
	recent     []uint32
	recentN    int
	window     uint32
	rangeEvery uint32
}

func newGen(seed uint64, keys int, m mix, scanLen int) *gen {
	return &gen{r: rng{s: seed}, z: newZipf(keys), keys: keys, mod: 1, mix: m, scanLen: scanLen}
}

func (g *gen) uniform() uint32 { return uint32(g.r.intn(g.keys))*g.mod + g.res }
func (g *gen) zipfian() uint32 { return scatter(g.z.rank(&g.r), g.keys)*g.mod + g.res }

// next returns the op for the given tick (ticks start at 1).
func (g *gen) next(tick uint32) op {
	if g.rangeEvery > 0 && tick%g.rangeEvery == 0 && tick > g.window {
		// Retention: everything older than the window goes.
		return op{kind: opRangeDelete, lo: 0, hi: uint64(tick - g.window)}
	}
	p := g.r.intn(1000)
	m := &g.mix
	switch {
	case p < m.insert:
		o := op{kind: opPut, idx: g.uniform()}
		g.noteWrite(o.idx)
		return o
	case p < m.insert+m.update:
		return op{kind: opPut, idx: g.zipfian()}
	case p < m.insert+m.update+m.del:
		if g.recent != nil {
			return op{kind: opDelete, idx: g.recentKey()}
		}
		return op{kind: opDelete, idx: g.uniform()}
	case p < m.insert+m.update+m.del+m.getHit:
		if g.recent != nil {
			return op{kind: opGet, idx: g.recentKey()}
		}
		return op{kind: opGet, idx: g.zipfian()}
	case p < m.insert+m.update+m.del+m.getHit+m.getAbsent:
		return op{kind: opGet, idx: g.zipfian(), absent: true}
	default:
		return op{kind: opScan, idx: g.uniform(), n: g.scanLen}
	}
}

func (g *gen) noteWrite(idx uint32) {
	if g.recent == nil {
		return
	}
	g.recent[g.recentN%len(g.recent)] = idx
	g.recentN++
}

// recentKey picks among the last writes, favouring the newest (the retained
// window's working set), or a uniform key before any write.
func (g *gen) recentKey() uint32 {
	n := g.recentN
	if n > len(g.recent) {
		n = len(g.recent)
	}
	if n == 0 {
		return g.uniform()
	}
	u := g.r.float()
	back := int(u * u * float64(n))
	return g.recent[((g.recentN-1-back)%len(g.recent)+len(g.recent))%len(g.recent)]
}
