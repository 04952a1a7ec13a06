//go:build race

package skiplist

const poison = true
