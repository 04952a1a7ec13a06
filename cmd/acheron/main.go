// Command acheron is an interactive shell over an Acheron store — the
// demonstration component of the paper. It exposes puts, gets, deletes
// (point and secondary-range), scans, manual maintenance stepping, and live
// inspection of the tree shape, tombstone population and persistence
// statistics.
//
// Usage:
//
//	acheron -dir /tmp/store [-dpt 1h] [-policy leveled|size-tiered|lazy-leveling] [-kiwi]
//	        [-timeout 50ms] [-write-rate 10000]
//	acheron -connect 127.0.0.1:4600
//
// With -connect the shell speaks the wire protocol to a running acherond
// instead of embedding a store. Then type "help" at the prompt.
package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/admission"
	"repro/internal/base"
	"repro/internal/client"
	"repro/internal/compaction"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/metrics"
)

func main() {
	connect := flag.String("connect", "", "acherond address; speak the wire protocol instead of embedding a store")
	dir := flag.String("dir", "acheron-data", "store directory")
	dpt := flag.Duration("dpt", 0, "delete persistence threshold (0 disables FADE)")
	policyName := flag.String("policy", "", "compaction policy: leveled (default), size-tiered, or lazy-leveling")
	kiwi := flag.Bool("kiwi", false, "use the KiWi key-weaving layout (4 pages/tile)")
	eager := flag.Bool("eager", false, "apply secondary range deletes eagerly")
	opTimeout := flag.Duration("timeout", 0, "per-operation deadline; stalled or queued ops fail instead of blocking (0 disables)")
	writeRate := flag.Float64("write-rate", 0, "admitted write rate in ops/s via token-bucket admission control (0 disables)")
	flag.Parse()

	if *connect != "" {
		c, err := client.Dial(*connect)
		if err != nil {
			fmt.Fprintf(os.Stderr, "connect: %v\n", err)
			os.Exit(1)
		}
		defer c.Close()
		if err := c.Ping(); err != nil {
			fmt.Fprintf(os.Stderr, "ping: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("acheron shell — connected to acherond at %s\n", *connect)
		shell(remoteStore{c})
		return
	}

	opts := core.Options{
		DeleteKeyFunc: func(v []byte) base.DeleteKey {
			if len(v) < 8 {
				return 0
			}
			return binary.BigEndian.Uint64(v)
		},
		EagerRangeDeletes: *eager,
		Compaction: compaction.Options{
			Picker: compaction.PickMinOverlap,
			DPT:    base.Duration(*dpt),
		},
	}
	if *dpt > 0 {
		opts.Compaction.Picker = compaction.PickFADE
	}
	kind, ok := compaction.ParsePolicyKind(*policyName)
	if !ok {
		fmt.Fprintf(os.Stderr, "-policy: unknown policy %q (want leveled, size-tiered, or lazy-leveling)\n", *policyName)
		os.Exit(1)
	}
	opts.Compaction.Policy = kind
	if *kiwi {
		opts.PagesPerTile = 4
	}
	if *writeRate > 0 {
		opts.Admission = admission.Config{WriteRate: *writeRate}
	}

	db, err := core.Open(*dir, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "open: %v\n", err)
		os.Exit(1)
	}
	defer db.Close()

	fmt.Printf("acheron shell — store %q, dpt=%v, policy=%s, kiwi=%v\n", *dir, *dpt, db.PolicyName(), *kiwi)
	shell(localStore{db: db, timeout: *opTimeout})
}

var errQuit = fmt.Errorf("quit")

// store is what the shell's shared commands run against: the embedded
// engine or a live acherond over the wire protocol.
type store interface {
	put(key, value []byte) error
	get(key []byte) ([]byte, error)
	del(key []byte) error
	rangeDel(lo, hi uint64) error
	// scan returns up to limit live entries with keys >= start.
	scan(start []byte, limit int) ([]client.KV, error)
	// other runs a command that is not shared by both kinds of store.
	other(fields []string) error
	// help lists the commands other answers.
	help() string
}

// shell is the prompt loop.
func shell(s store) {
	fmt.Println(`type "help" for commands`)
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if err := execute(s, fields); err != nil {
			if err == errQuit {
				return
			}
			fmt.Printf("error: %v\n", err)
		}
	}
}

func execute(s store, fields []string) error {
	switch fields[0] {
	case "help":
		fmt.Print(`commands:
  put <key> <value>          insert/update (value's delete key = now)
  get <key>                  point lookup
  del <key>                  point delete
  rangedel <loUnix> <hiUnix> secondary range delete on [lo, hi) timestamps
  scan [prefix] [limit]      iterate live keys
` + s.help() + `  quit
`)
	case "put":
		if len(fields) != 3 {
			return fmt.Errorf("usage: put <key> <value>")
		}
		// Prefix the value with its delete key: the current time.
		v := make([]byte, 8+len(fields[2]))
		binary.BigEndian.PutUint64(v, uint64(time.Now().UnixNano()))
		copy(v[8:], fields[2])
		return s.put([]byte(fields[1]), v)
	case "get":
		if len(fields) != 2 {
			return fmt.Errorf("usage: get <key>")
		}
		v, err := s.get([]byte(fields[1]))
		if err != nil {
			return err
		}
		if len(v) >= 8 {
			ts := time.Unix(0, int64(binary.BigEndian.Uint64(v)))
			fmt.Printf("%s (written %s)\n", v[8:], ts.Format(time.RFC3339))
		} else {
			fmt.Printf("%s\n", v)
		}
	case "del":
		if len(fields) != 2 {
			return fmt.Errorf("usage: del <key>")
		}
		return s.del([]byte(fields[1]))
	case "rangedel":
		if len(fields) != 3 {
			return fmt.Errorf("usage: rangedel <loUnixNano> <hiUnixNano>")
		}
		lo, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return err
		}
		hi, err := strconv.ParseUint(fields[2], 10, 64)
		if err != nil {
			return err
		}
		return s.rangeDel(lo, hi)
	case "scan":
		prefix := ""
		limit := 20
		if len(fields) > 1 {
			prefix = fields[1]
		}
		if len(fields) > 2 {
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				return err
			}
			limit = n
		}
		kvs, err := s.scan([]byte(prefix), limit)
		if err != nil {
			return err
		}
		n := 0
		for _, kv := range kvs {
			if !strings.HasPrefix(string(kv.Key), prefix) {
				break
			}
			val := kv.Value
			if len(val) >= 8 {
				val = val[8:]
			}
			fmt.Printf("%s = %s\n", kv.Key, val)
			n++
		}
		fmt.Printf("(%d keys)\n", n)
	case "quit", "exit":
		return errQuit
	default:
		return s.other(fields)
	}
	return nil
}

// remoteStore drives a live acherond. Beyond the shared commands it answers
// the served surface's own: server stats and ping.
type remoteStore struct{ c *client.Client }

func (r remoteStore) put(key, value []byte) error    { return r.c.Put(key, value) }
func (r remoteStore) get(key []byte) ([]byte, error) { return r.c.Get(key) }
func (r remoteStore) del(key []byte) error           { return r.c.Delete(key) }
func (r remoteStore) rangeDel(lo, hi uint64) error   { return r.c.DeleteSecondaryRange(lo, hi) }
func (r remoteStore) scan(start []byte, limit int) ([]client.KV, error) {
	return r.c.Scan(start, nil, limit)
}

func (r remoteStore) help() string {
	return `  stats                      server stats (JSON)
  ping                       round-trip check
`
}

func (r remoteStore) other(fields []string) error {
	switch fields[0] {
	case "stats":
		body, err := r.c.Stats()
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", body)
	case "ping":
		start := time.Now()
		if err := r.c.Ping(); err != nil {
			return err
		}
		fmt.Printf("pong (%v)\n", time.Since(start).Round(time.Microsecond))
	default:
		if _, ok := localCommands[fields[0]]; ok {
			return fmt.Errorf("%s is not available over -connect", fields[0])
		}
		return fmt.Errorf("unknown command %q (try help)", fields[0])
	}
	return nil
}

// localStore drives the embedded engine. timeout is the -timeout flag: the
// deadline attached to every operation, so under a saturated stall or a
// drained admission bucket the command returns a wrapped
// context.DeadlineExceeded or ErrOverloaded instead of hanging the prompt.
type localStore struct {
	db      *core.DB
	timeout time.Duration
}

// opCtx returns the context for one shell operation and its cancel func.
func (l localStore) opCtx() (context.Context, context.CancelFunc) {
	if l.timeout <= 0 {
		return context.Background(), func() {}
	}
	return context.WithTimeout(context.Background(), l.timeout)
}

func (l localStore) put(key, value []byte) error {
	ctx, cancel := l.opCtx()
	defer cancel()
	return l.db.PutCtx(ctx, key, value)
}

func (l localStore) get(key []byte) ([]byte, error) {
	ctx, cancel := l.opCtx()
	defer cancel()
	return l.db.GetCtx(ctx, key)
}

func (l localStore) del(key []byte) error {
	ctx, cancel := l.opCtx()
	defer cancel()
	return l.db.DeleteCtx(ctx, key)
}

func (l localStore) rangeDel(lo, hi uint64) error {
	ctx, cancel := l.opCtx()
	defer cancel()
	return l.db.DeleteSecondaryRangeCtx(ctx, lo, hi)
}

func (l localStore) scan(start []byte, limit int) ([]client.KV, error) {
	it, err := l.db.NewIter(core.IterOptions{})
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var out []client.KV
	for ok := it.SeekGE(start); ok && len(out) < limit; ok = it.Next() {
		out = append(out, client.KV{
			Key:   append([]byte(nil), it.Key()...),
			Value: append([]byte(nil), it.Value()...),
		})
	}
	return out, it.Error()
}

func (l localStore) help() string {
	return `  stats                      engine statistics
  levels                     per-level tree shape
  metrics                    Prometheus text exposition of every metric
  vars                       all metrics as one JSON document
  events [n]                 last n buffered trace events (default 20)
  jobs                       recently completed maintenance jobs
  admission                  per-class admission-control counters
  watch [seconds]            tail trace events live (default 5s)
  serve [addr]               expose /metrics /vars /events /jobs over HTTP
  flush                      flush memtables
  compact                    compact everything
`
}

func (l localStore) other(fields []string) error {
	cmd, ok := localCommands[fields[0]]
	if !ok {
		return fmt.Errorf("unknown command %q (try help)", fields[0])
	}
	return cmd(l, fields[1:])
}

// intArg parses the optional first argument, returning def when absent.
func intArg(args []string, def int) (int, error) {
	if len(args) == 0 {
		return def, nil
	}
	return strconv.Atoi(args[0])
}

// localCommands are the commands only an embedded store answers; over
// -connect they are refused by name instead of reading as typos.
var localCommands = map[string]func(l localStore, args []string) error{
	"stats": func(l localStore, _ []string) error {
		fmt.Println(l.db.Stats())
		return nil
	},
	"levels": func(l localStore, _ []string) error {
		fmt.Println("level  runs  files  bytes      tombstones")
		for lvl, info := range l.db.Levels() {
			if info.Files == 0 {
				continue
			}
			fmt.Printf("L%-5d %-5d %-6d %-10d %d\n", lvl, info.Runs, info.Files, info.Bytes, info.Tombstones)
		}
		return nil
	},
	"metrics": func(l localStore, _ []string) error {
		_, err := l.db.Registry().WriteTo(os.Stdout)
		return err
	},
	"vars": func(l localStore, _ []string) error {
		return l.db.Registry().WriteJSON(os.Stdout)
	},
	"events": func(l localStore, args []string) error {
		n, err := intArg(args, 20)
		if err != nil {
			return err
		}
		evs := l.db.RecentEvents(n)
		for _, e := range evs {
			fmt.Println(e)
		}
		fmt.Printf("(%d events, %d emitted total)\n", len(evs), l.db.TraceEventsTotal())
		return nil
	},
	"jobs": func(l localStore, _ []string) error {
		jobs := l.db.RecentMaintJobs()
		for _, j := range jobs {
			kind := j.Kind.String()
			if j.Kind == core.JobCompact {
				kind += "/" + j.Trigger.String()
				if j.Policy != "" {
					kind += " " + j.Policy
				}
			}
			status := "ok"
			if j.Err != nil {
				status = "err=" + j.Err.Error()
			}
			fmt.Printf("#%-4d %-22s L%d->L%d in=%d out=%d dur=%v %s\n",
				j.ID, kind, j.StartLevel, j.OutputLevel, j.BytesIn, j.BytesOut,
				j.Finished.Sub(j.Started).Round(time.Microsecond), status)
		}
		fmt.Printf("(%d jobs)\n", len(jobs))
		return nil
	},
	"watch": func(l localStore, args []string) error {
		secs, err := intArg(args, 5)
		if err != nil {
			return err
		}
		return watchEvents(l.db, time.Duration(secs)*time.Second)
	},
	"serve": func(l localStore, args []string) error {
		addr := "127.0.0.1:0"
		if len(args) > 0 {
			addr = args[0]
		}
		bound, _, err := metrics.Serve(addr, l.db.MetricsHandler())
		if err != nil {
			return err
		}
		fmt.Printf("serving http://%s/{metrics,vars,events,jobs} until the shell exits\n", bound)
		return nil
	},
	"admission": func(l localStore, _ []string) error {
		ac := l.db.Admission()
		if ac == nil {
			fmt.Println("admission control disabled (start with -write-rate)")
			return nil
		}
		fmt.Println("class  admitted  rejected  shed  p50_wait   p99_wait")
		for _, cl := range []admission.Class{admission.ClassRead, admission.ClassWrite} {
			cm := ac.ClassMetrics(cl)
			fmt.Printf("%-6s %-9d %-9d %-5d %-10v %v\n", cl,
				cm.Admitted.Get(), cm.Rejected.Get(), cm.Shed.Get(),
				time.Duration(cm.Wait.Quantile(0.5)), time.Duration(cm.Wait.Quantile(0.99)))
		}
		return nil
	},
	"flush": func(l localStore, _ []string) error {
		return l.db.Flush()
	},
	"compact": func(l localStore, _ []string) error {
		ctx, cancel := l.opCtx()
		defer cancel()
		return l.db.CompactAllCtx(ctx)
	},
}

// watchEvents tails the trace ring for d, polling EventsSince with the last
// seen sequence number so nothing is printed twice and nothing buffered is
// missed (short of ring eviction under extreme rates).
func watchEvents(db *core.DB, d time.Duration) error {
	deadline := time.Now().Add(d)
	next := db.TraceEventsTotal() // start at "now": only new events
	fmt.Printf("watching events for %v...\n", d)
	for time.Now().Before(deadline) {
		evs := db.EventsSince(next, event.DefaultRingSize)
		for _, e := range evs {
			fmt.Println(e)
			next = e.Seq + 1
		}
		time.Sleep(200 * time.Millisecond)
	}
	return nil
}
