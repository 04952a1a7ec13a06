package lockheld

import "os"

// blockingSelectSend has no default clause, so its send case can stall the
// critical section exactly like a bare send statement.
func (e *engine) blockingSelectSend(done chan struct{}) {
	e.mu.Lock()
	select {
	case e.ch <- 1: // want `blocking channel send while "e.mu" is held`
	case <-done:
	}
	e.mu.Unlock()
}

// twoInstances holds the mutexes of two values of one type. Held locks are
// keyed by source text: under canonical names ("lockheld.engine.mu") both
// are one entry, a.mu.Unlock() would empty the set, and the I/O under b.mu
// would go unreported.
func twoInstances(a, b *engine) {
	a.mu.Lock()
	b.mu.Lock()
	a.mu.Unlock()
	os.Remove("wal.log") // want `I/O call os.Remove while "b.mu" is held`
	b.mu.Unlock()
}

// unusedDirective annotates a call the analysis never flags (no lock is
// held): the directive overrules nothing and is reported itself.
func unusedDirective() {
	//lint:ignore lockheld nothing is held here // want `unused //lint:ignore lockheld directive`
	os.Remove("wal.log")
}
