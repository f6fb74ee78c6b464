package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/gautrais/stability"
	"github.com/gautrais/stability/internal/faultfs"
	"github.com/gautrais/stability/internal/store"
)

// cmdMonitor replays a receipt dataset month by month through the sharded
// streaming monitor and prints every alert, demonstrating the production
// deployment shape of the model on recorded data. Within a month receipts
// go customer by customer, each customer's in time order: a window's score
// depends only on the baskets in it, so that order reaches no output.
// Alerts are collected at each window boundary (the feed's watermark), so
// output is deterministic for any -shards value. The batch replay is the
// one-shot reference a -follow session's output is checked against.
//
// With -state, the monitor becomes an incremental consumer of a growing
// dataset: the first run processes the file and persists the monitor
// snapshot; after the dataset is extended in place (attrition gen -extend),
// the next run restores the snapshot, feeds only the windows past its
// watermark, and persists again. The alerts printed across the incremental
// runs are exactly the alerts one batch replay of the final file prints —
// extension never rescores the past. Because more data may follow —
// possibly for the very month the file ends in — -state runs close only
// windows that ended at or before the start of the last receipt's month;
// later windows stay open (their pending baskets persist in the snapshot,
// and they are scored once a later run proves them covered) instead of
// being force-closed.
//
// With -follow, the file is tailed instead of replayed; see runFollow.
func cmdMonitor(args []string) error {
	fs := flag.NewFlagSet("monitor", flag.ExitOnError)
	var (
		data      = fs.String("data", "", "receipt CSV/JSONL/snapshot path (required)")
		span      = fs.Int("span", 2, "window span in months")
		alpha     = fs.Float64("alpha", 2, "significance base α")
		beta      = fs.Float64("beta", 0.6, "loyalty threshold: alert at stability <= beta")
		topJ      = fs.Int("top", 3, "blamed products per alert")
		warmup    = fs.Int("warmup", 4, "windows of history before alerts may fire")
		shards    = fs.Int("shards", 0, "ingestion shards (customer-hash partitions); 0 = GOMAXPROCS")
		state     = fs.String("state", "", "monitor snapshot path: restore from it when present, feed only new windows, persist back (incremental replay of a growing dataset)")
		maxShow   = fs.Int("max-show", 50, "maximum alerts to print (summary always shown); -follow prints from the last 65536 published alerts, so a catch-up raising more may skip lines (a warning counts them)")
		follow    = fs.Bool("follow", false, "tail -data (a binary snapshot segment chain) for appended segments instead of exiting at end of file, resyncing when it is compacted; SIGTERM exits cleanly, persisting -state")
		poll      = fs.Duration("poll", 2*time.Second, "poll interval in -follow mode")
		retention = fs.Int("retention", 0, "retention horizon in windows: customers silent that long are scored through the horizon and evicted; 0 keeps everyone forever")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// cfg is complete once the dataset's first receipt fixes the grid.
	cfg := stability.MonitorConfig{
		Model:            stability.Options{Alpha: *alpha},
		Beta:             *beta,
		TopJ:             *topJ,
		WarmupWindows:    *warmup,
		RetentionWindows: *retention,
	}
	out := &alertPrinter{max: *maxShow}
	if *follow {
		return runFollow(cfg, *data, *state, *span, *shards, *poll, out)
	}
	st, err := loadStore(*data)
	if err != nil {
		return err
	}
	min, max, ok := st.TimeRange()
	if !ok {
		return fmt.Errorf("dataset is empty")
	}
	grid, err := stability.NewGrid(min, *span)
	if err != nil {
		return err
	}
	cfg.Grid = grid
	monitor, resumeK, err := openMonitor(cfg, *state, *shards)
	if err != nil {
		return err
	}

	type event struct {
		id stability.CustomerID
		r  stability.Receipt
	}
	feed := make([]event, 0, st.NumReceipts())
	skipped := 0
	store.EachByMonth(st, grid.MonthIndex, func(id stability.CustomerID, r stability.Receipt, _ int) bool {
		if grid.Index(r.Time) < resumeK {
			skipped++ // window already scored by a previous -state run
		} else {
			feed = append(feed, event{id, r})
		}
		return true
	})
	if skipped > 0 {
		fmt.Printf("resuming at window %d: %d receipts already processed, %d new\n", resumeK, skipped, len(feed))
	}

	lastK := resumeK
	for _, ev := range feed {
		k := grid.Index(ev.r.Time)
		if k > lastK {
			alerts, err := monitor.CloseThrough(k - 1)
			if err != nil {
				return fmt.Errorf("close through window %d: %w", k-1, err)
			}
			out.add(alerts...)
			lastK = k
		}
		if err := monitor.Ingest(ev.id, ev.r.Time, ev.r.Items); err != nil {
			return fmt.Errorf("ingest customer %d: %w", ev.id, err)
		}
	}
	// End-of-data watermark. Without -state this is the last window seen —
	// the replay is final, score everything. With -state, more data may be
	// appended later, and a stream can never prove the month containing
	// its last receipt is complete (the file may end mid-month; appended
	// receipts for that month must still be ingestible). So only windows
	// that ended at or before that month's start are closed; later windows
	// stay open — their pending baskets persist in the snapshot — until a
	// subsequent run proves them covered.
	closeK := lastK
	if *state != "" {
		lastMonthStart := grid.Origin().AddDate(0, grid.MonthIndex(max), 0)
		closeK = grid.Index(lastMonthStart) - 1
	}
	alerts, err := monitor.CloseThrough(closeK)
	if err != nil {
		return fmt.Errorf("close through window %d: %w", closeK, err)
	}
	out.add(alerts...)
	final, err := monitor.Close()
	if err != nil {
		return fmt.Errorf("monitor close: %w", err)
	}
	out.add(final...)
	if *state != "" {
		if err := saveMonitorState(*state, monitor); err != nil {
			return err
		}
		fmt.Printf("state saved to %s (watermark window %d)\n", *state, closeK+1)
	}
	fmt.Fprintf(os.Stdout, "\n%d alerts over %d customers (%d shards, %d shown)\n",
		out.total, monitor.Customers(), monitor.Shards(), out.shown)
	return nil
}

// alertPrinter prints alerts one line each, up to max of them, and counts
// every alert it is handed.
type alertPrinter struct {
	max, shown, total int
}

func (p *alertPrinter) add(alerts ...stability.Alert) {
	for _, a := range alerts {
		p.total++
		if p.shown >= p.max {
			continue
		}
		p.shown++
		parts := make([]string, 0, len(a.Blame))
		for _, b := range a.Blame {
			parts = append(parts, fmt.Sprintf("item %d (share %.2f)", b.Item, b.Share))
		}
		fmt.Printf("%s customer %-8d stability %.3f  missing: %s\n",
			a.End.Format("2006-01"), a.Customer, a.Stability, strings.Join(parts, ", "))
	}
}

// runFollow is `monitor -follow`: it tails the growing binary snapshot
// chain at data with the follow task of a stability.Ingestor — the
// pipeline `attritiond -follow` runs — and prints the alerts it publishes.
// The CLI itself only probes the file until its first complete segments
// fix the grid origin: the same derivation a batch replay of the file
// makes, since those segments start at byte zero and appends never
// precede them. From then on the Ingestor polls the file, drops receipts
// for windows already closed, closes only windows that ended at or before
// the start of the newest receipt's month (the -state rule), resyncs when
// the file is compacted underneath it, and restores -state by replaying
// the file from byte zero with already-published alerts suppressed; it
// saves -state only once that replay has caught up with it. Alerts
// printed across follow sessions are therefore exactly what incremental
// -state replays of the same file print.
//
// SIGTERM or SIGINT drains the pipeline, persists -state and prints the
// remaining alerts. So does a follower that stays degraded (the file keeps
// failing to read or decode), which then returns the degraded reason and
// its cause.
func runFollow(cfg stability.MonitorConfig, data, state string, span, shards int, poll time.Duration, out *alertPrinter) error {
	if data == "" {
		return fmt.Errorf("monitor -follow: -data is required")
	}
	if poll <= 0 {
		return fmt.Errorf("monitor -follow: -poll must be positive")
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	tick := time.NewTicker(poll)
	defer tick.Stop()

	fmt.Printf("following %s (poll %v); SIGTERM to stop\n", data, poll)
	probe := stability.NewSnapshotFollower(data)
	for {
		batch, err := probe.Poll()
		if err != nil {
			return err
		}
		if batch != nil {
			if min, _, ok := batch.TimeRange(); ok {
				if cfg.Grid, err = stability.NewGrid(min, span); err != nil {
					return err
				}
				break
			}
		}
		select {
		case <-sig:
			fmt.Println("stopped before any data arrived")
			return nil
		case <-tick.C:
		}
	}
	ing, err := stability.NewIngestor(stability.IngestorConfig{
		Monitor: cfg, Shards: shards, StatePath: state, FollowPath: data, FollowInterval: poll,
	})
	if err != nil {
		return err
	}

	var after uint64
	show := func() <-chan struct{} {
		alerts, oldest, wait := ing.AlertsSince(after, 0)
		if after+1 < oldest && out.shown < out.max {
			fmt.Fprintf(os.Stderr, "warning: %d alerts left the alert buffer before they were printed\n", oldest-after-1)
		}
		for _, a := range alerts {
			out.add(a.Alert)
			after = a.Seq
		}
		return wait
	}
	var degraded error
	for running := true; running; {
		wait := show()
		if h := ing.Health(); h.Degraded {
			degraded = fmt.Errorf("monitor -follow: %s: %w", h.Reasons[0], h.Causes[0])
			break
		}
		select {
		case <-sig:
			running = false
		case <-wait:
		case <-tick.C:
		}
	}
	err = ing.Close()
	show()
	if err != nil {
		return fmt.Errorf("monitor -follow: %w", err)
	}
	m := ing.Metrics()
	switch {
	case state == "":
	case m.Saves > 0:
		fmt.Printf("state saved to %s (watermark window %d)\n", state, m.Watermark)
	default:
		fmt.Printf("state %s left as it was: the replay had not caught up with it\n", state)
	}
	if m.FollowSkipped > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d receipts arrived for already-closed windows and were dropped\n", m.FollowSkipped)
	}
	fmt.Printf("\n%d alerts over %d customers (%d shown, %d polls, %d resyncs)\n",
		m.AlertsEmitted, m.CustomersRetained, out.shown, m.FollowPolls, m.FollowResyncs)
	return degraded
}

// openMonitor returns a fresh sharded monitor, or one restored from the
// state file when it exists, along with the window index feeding should
// resume from (0 for a fresh monitor).
func openMonitor(cfg stability.MonitorConfig, statePath string, shards int) (*stability.ShardedMonitor, int, error) {
	if statePath != "" {
		f, err := os.Open(statePath)
		switch {
		case err == nil:
			defer f.Close()
			monitor, err := stability.ReadShardedMonitorSnapshot(f, cfg, stability.MonitorOptions{Shards: shards})
			if err != nil {
				return nil, 0, fmt.Errorf("restore state %s: %w", statePath, err)
			}
			resumeK, _ := monitor.Watermark()
			return monitor, resumeK, nil
		case !os.IsNotExist(err):
			return nil, 0, err
		}
	}
	monitor, err := stability.NewShardedMonitor(cfg, stability.MonitorOptions{Shards: shards})
	if err != nil {
		return nil, 0, err
	}
	return monitor, 0, nil
}

// saveMonitorState atomically persists the monitor snapshot (tmp + fsync
// + rename).
func saveMonitorState(path string, monitor *stability.ShardedMonitor) error {
	return faultfs.WriteAtomic(faultfs.OS{}, path, monitor.WriteSnapshot)
}
