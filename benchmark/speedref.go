package main

import (
	"bytes"
	"slices"
	"sync"
)

// The sandbox is a few cores of a shared host, and the host's speed is not
// the benchmark's to choose: turbo, the shared last-level cache and memory
// latency move every time this process measures by a third and more, for
// seconds or for minutes, whatever the engine does. A time read off the wall
// clock is therefore the engine's cost multiplied by the host's mood, and
// two runs of the same code differ by more than any bound worth having.
//
// So the benchmark carries a yardstick. Between the ops of every workload it
// runs a fixed kernel of its own — binary searches over 16 MB of sorted keys,
// the dependent cache misses and key comparisons an LSM lookup is made of —
// and times it with the same clock. How long the kernel took in a stretch of
// the run says how fast the machine was during that stretch; every reported
// time is scaled to what it would have been at the reference speed, the
// speed at which one burst of the kernel takes refBurstNs. The kernel is the
// benchmark's and touches nothing of the engine, so a change to the engine
// moves the engine's times and not the yardstick.
const (
	refTableKeys = 1 << 20 // 16 MB: far beyond a core's own caches, like the engine's tables
	refEvery     = 64      // ops between two bursts
	refBurst     = 4       // searches per burst
	// refBurstNs is the reference speed: a burst's median time on the 2-core
	// reference sandbox in a quiet spell, beside read_settled.
	refBurstNs = 6000
)

// refTable is the kernel's sorted key table, shared and read-only.
var refTable = sync.OnceValue(func() []byte {
	t := make([]byte, refTableKeys*keyLen)
	for i := 0; i < refTableKeys; i++ {
		putKey(t[i*keyLen:(i+1)*keyLen], uint32(i), false)
	}
	return t
})

// speedRef runs the kernel for one driver and keeps the burst times of the
// stretch since the last call to speed.
type speedRef struct {
	table  []byte
	r      rng
	key    [keyLen]byte
	sink   int
	bursts []uint32
	last   float64 // the previous stretch's speed, for a stretch too short to hold a burst
	ns     int64   // all the time spent in the kernel: no reported time includes it
}

func newSpeedRef(seed uint64) *speedRef {
	return &speedRef{table: refTable(), r: rng{s: seed ^ 0x5eed1e55}, bursts: make([]uint32, 0, 1<<14), last: 1}
}

// burst runs and times refBurst searches for random keys, half of them absent.
func (s *speedRef) burst() {
	t0 := nowNs()
	for i := 0; i < refBurst; i++ {
		putKey(s.key[:], uint32(s.r.intn(refTableKeys)), s.r.next()&1 == 0)
		lo, hi := 0, refTableKeys
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			//lint:ignore rawkeycompare the yardstick's own table, never handed to the engine
			if bytes.Compare(s.table[mid*keyLen:(mid+1)*keyLen], s.key[:]) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		s.sink += lo
	}
	dt := nowNs() - t0
	s.ns += dt
	s.bursts = append(s.bursts, uint32(min(dt, 1<<32-1)))
}

// speed ends the stretch and returns the machine's speed over it as a
// multiple of the reference speed: refBurstNs over the median burst, which an
// interrupt or a descheduled moment inside a few bursts does not move.
func (s *speedRef) speed() float64 {
	if len(s.bursts) > 0 {
		slices.Sort(s.bursts)
		s.last = refBurstNs / float64(s.bursts[len(s.bursts)/2])
		s.bursts = s.bursts[:0]
	}
	return s.last
}
