//go:build !linux

package main

func pinMemory() bool { return false }
