//go:build race

package vfs

const poison = true
