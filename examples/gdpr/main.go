// GDPR example: the right to be forgotten with a hard persistence bound.
//
// A service stores user records. Regulation requires that once a user asks
// to be deleted, their data is physically gone within a fixed window. The
// example runs two engines side by side — a delete-oblivious baseline and
// Acheron's FADE with the compliance window as its DPT — processes the same
// erasure requests, and prints a compliance report from the engines' own
// persistence-latency histograms.
//
//	go run ./examples/gdpr
package main

import (
	"fmt"
	"log"

	acheron "repro"
	"repro/internal/workload"
)

// complianceWindow is the regulatory erasure deadline, in logical ticks
// (the example drives a logical clock: 1 tick = 1 operation; think of a
// tick as ~100ms of production traffic).
const complianceWindow = 20_000

// settleStep is the demo's scheduler slack: it drives maintenance in discrete
// steps while the window elapses, so deadlines can be met up to one step late.
const settleStep = complianceWindow / 128

func runEngine(name string, dpt acheron.Duration) {
	clk := &acheron.LogicalClock{}
	opts := acheron.Options{
		FS:                     acheron.NewMemFS(),
		Clock:                  clk,
		MemTableBytes:          128 << 10,
		DisableAutoMaintenance: true,
		Compaction: acheron.CompactionOptions{
			SizeRatio:       4,
			BaseLevelBytes:  512 << 10,
			TargetFileBytes: 128 << 10,
			DPT:             dpt,
		},
	}
	if dpt > 0 {
		opts.Compaction.Picker = acheron.PickFADE
	}
	db, err := acheron.Open("gdpr-db", opts)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	// Lateness is counted as each erasure persists, so the ruler is set up
	// front — on the baseline too, which has no deadline of its own.
	db.Stats().SetPersistenceDeadline(complianceWindow + settleStep)

	step := func() {
		clk.Advance(1)
		if clk.Now()%64 == 0 {
			if err := db.WaitIdle(); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Phase 1: the service accumulates user records.
	const users = 30_000
	for i := 0; i < users; i++ {
		key := []byte(fmt.Sprintf("user:%08d", i))
		profile := workload.ValueFor(uint64(clk.Now()), 128)
		if err := db.Put(key, profile); err != nil {
			log.Fatal(err)
		}
		step()
	}

	// Phase 2: normal traffic interleaved with erasure requests. Every
	// 20th operation is a right-to-be-forgotten request.
	erasures := 0
	for i := 0; i < 40_000; i++ {
		u := (i * 7919) % users
		key := []byte(fmt.Sprintf("user:%08d", u))
		if i%20 == 19 {
			if err := db.Delete(key); err != nil {
				log.Fatal(err)
			}
			erasures++
		} else {
			if err := db.Put(key, workload.ValueFor(uint64(clk.Now()), 128)); err != nil {
				log.Fatal(err)
			}
		}
		step()
	}

	// Phase 3: the compliance window elapses with background traffic
	// (maintenance keeps running, but no new writes).
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 160; i++ {
		clk.Advance(settleStep)
		if err := db.WaitIdle(); err != nil {
			log.Fatal(err)
		}
	}

	st := db.Stats()
	persisted := st.PersistenceLatency.Count()
	live := st.LiveTombstones.Get()
	// A request counts as compliant only if it was physically erased
	// within the window; still-pending erasures are violations.
	within := float64(persisted) * st.PersistedWithin()
	total := float64(persisted + live)
	fmt.Printf("\n--- %s ---\n", name)
	fmt.Printf("erasure requests:            %d\n", erasures)
	fmt.Printf("physically erased:           %d\n", persisted)
	fmt.Printf("superseded (re-registered):  %d\n", st.TombstonesSuperseded.Get())
	fmt.Printf("still pending erasure:       %d\n", live)
	fmt.Printf("erase latency p50/p99/max:   %d / %d / %d ticks\n",
		st.PersistenceLatency.Quantile(0.50),
		st.PersistenceLatency.Quantile(0.99),
		st.PersistenceLatency.Max())
	if total > 0 {
		fmt.Printf("erased within window:        %.1f%%\n", 100*within/total)
	}
	if live > 0 || st.PersistenceLatency.Max() > complianceWindow+settleStep {
		fmt.Println("compliance: VIOLATED")
	} else {
		fmt.Println("compliance: OK (within scheduler slack)")
	}
}

func main() {
	fmt.Println("GDPR right-to-be-forgotten compliance demo")
	fmt.Printf("compliance window: %d ticks\n", complianceWindow)
	runEngine("baseline LSM (no persistence bound)", 0)
	runEngine("acheron FADE (DPT = window)", complianceWindow)
}
