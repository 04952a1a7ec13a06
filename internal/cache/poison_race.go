//go:build race

package cache

const poison = true
