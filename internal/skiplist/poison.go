//go:build !race

package skiplist

// poison is set under the race detector, where a chunk is overwritten as its
// list is released, so a reader still walking the list reads garbage at once.
const poison = false
