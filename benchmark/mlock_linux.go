package main

import "syscall"

// pinMemory locks the process's present and future pages in memory. The
// sandbox's kernel reclaims cold pages proactively (DAMON); without this an
// allocation-heavy phase that follows a quiet one pays for their return, and
// which phase pays varies from run to run. Best effort: without the privilege
// the benchmark runs unpinned.
func pinMemory() bool {
	return syscall.Mlockall(syscall.MCL_CURRENT|syscall.MCL_FUTURE) == nil
}
