//go:build !race

package vfs

// poison is set under the race detector, where a page is overwritten as it
// reaches the free list, so a read that outlives its file reads garbage at
// once.
const poison = false
