//go:build !race

package cache

// poison is set under the race detector, where a buffer is overwritten as its
// last reference goes, so a reader still using it reads garbage at once.
const poison = false
