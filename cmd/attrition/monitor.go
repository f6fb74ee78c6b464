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

// cmdMonitor replays a receipt dataset in timestamp order through the
// sharded streaming monitor and prints every alert, demonstrating the
// production deployment shape of the model on recorded data. Alerts are
// collected at each window boundary (the feed's watermark), so output is
// deterministic for any -shards value.
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
		maxShow   = fs.Int("max-show", 50, "maximum alerts to print (summary always shown)")
		follow    = fs.Bool("follow", false, "tail -data (a binary snapshot segment chain) for appended segments instead of exiting at end of file; SIGTERM exits cleanly, persisting -state")
		poll      = fs.Duration("poll", 2*time.Second, "poll interval in -follow mode")
		retention = fs.Int("retention", 0, "retention horizon in windows: customers silent that long are scored through the horizon and evicted; 0 keeps everyone forever")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *follow {
		return runFollow(followParams{
			data: *data, span: *span, alpha: *alpha, beta: *beta, topJ: *topJ,
			warmup: *warmup, shards: *shards, state: *state, maxShow: *maxShow,
			poll: *poll, retention: *retention,
		})
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
	cfg := stability.MonitorConfig{
		Grid:             grid,
		Model:            stability.Options{Alpha: *alpha},
		Beta:             *beta,
		TopJ:             *topJ,
		WarmupWindows:    *warmup,
		RetentionWindows: *retention,
	}
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
	store.EachByTime(st, func(id stability.CustomerID, r stability.Receipt) bool {
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

	shown, total := 0, 0
	emit := func(alerts []stability.Alert) {
		for _, a := range alerts {
			total++
			if shown >= *maxShow {
				continue
			}
			shown++
			parts := make([]string, 0, len(a.Blame))
			for _, b := range a.Blame {
				parts = append(parts, fmt.Sprintf("item %d (share %.2f)", b.Item, b.Share))
			}
			fmt.Printf("%s customer %-8d stability %.3f  missing: %s\n",
				a.End.Format("2006-01"), a.Customer, a.Stability, strings.Join(parts, ", "))
		}
	}

	lastK := resumeK
	for _, ev := range feed {
		k := grid.Index(ev.r.Time)
		if k > lastK {
			alerts, err := monitor.CloseThrough(k - 1)
			if err != nil {
				return fmt.Errorf("close through window %d: %w", k-1, err)
			}
			emit(alerts)
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
	emit(alerts)
	final, err := monitor.Close()
	if err != nil {
		return fmt.Errorf("monitor close: %w", err)
	}
	emit(final)
	if *state != "" {
		if err := saveMonitorState(*state, monitor); err != nil {
			return err
		}
		fmt.Printf("state saved to %s (watermark window %d)\n", *state, closeK+1)
	}
	fmt.Fprintf(os.Stdout, "\n%d alerts over %d customers (%d shards, %d shown)\n",
		total, monitor.Customers(), monitor.Shards(), shown)
	return nil
}

type followParams struct {
	data      string
	span      int
	alpha     float64
	beta      float64
	topJ      int
	warmup    int
	shards    int
	state     string
	maxShow   int
	poll      time.Duration
	retention int
}

// runFollow is `monitor -follow`: instead of replaying a finished file, it
// tails a growing binary snapshot chain by polling (stat size + decode the
// new segments — no inotify), feeding each appended batch through the
// sharded monitor. Torn tails from a writer caught mid-append are retried
// quietly from the last good segment boundary; real corruption and a file
// that shrank (compacted underneath us) abort loudly.
//
// Windows are closed per batch under the same conservative rule -state
// replays use: only windows that ended at or before the start of the month
// containing the newest receipt seen so far, because the stream can never
// prove the current month is complete. Alerts printed across the whole
// follow session are therefore exactly what incremental -state replays of
// the same file would print. SIGTERM or SIGINT exits cleanly, persisting
// -state so the next run (follow or batch) resumes at the watermark.
func runFollow(p followParams) error {
	if p.data == "" {
		return fmt.Errorf("monitor -follow: -data is required")
	}
	if p.poll <= 0 {
		return fmt.Errorf("monitor -follow: -poll must be positive")
	}
	fol := stability.NewSnapshotFollower(p.data)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	tick := time.NewTicker(p.poll)
	defer tick.Stop()

	var (
		monitor     *stability.ShardedMonitor
		grid        stability.Grid
		lastK       int       // watermark: first window not yet closed
		maxSeen     time.Time // newest receipt timestamp across all batches
		shown       int
		total       int
		skippedLate int // receipts for windows already closed (out-of-contract appends)
	)
	emit := func(alerts []stability.Alert) {
		for _, a := range alerts {
			total++
			if shown >= p.maxShow {
				continue
			}
			shown++
			parts := make([]string, 0, len(a.Blame))
			for _, b := range a.Blame {
				parts = append(parts, fmt.Sprintf("item %d (share %.2f)", b.Item, b.Share))
			}
			fmt.Printf("%s customer %-8d stability %.3f  missing: %s\n",
				a.End.Format("2006-01"), a.Customer, a.Stability, strings.Join(parts, ", "))
		}
	}

	ingestBatch := func(batch *stability.Store) error {
		min, max, ok := batch.TimeRange()
		if !ok {
			return nil
		}
		if monitor == nil {
			// First data decides the grid origin — the same derivation a
			// batch replay of this file would make, since the first poll
			// returns the file from byte zero and appends never precede it.
			g, err := stability.NewGrid(min, p.span)
			if err != nil {
				return err
			}
			grid = g
			cfg := stability.MonitorConfig{
				Grid:             grid,
				Model:            stability.Options{Alpha: p.alpha},
				Beta:             p.beta,
				TopJ:             p.topJ,
				WarmupWindows:    p.warmup,
				RetentionWindows: p.retention,
			}
			m, resumeK, err := openMonitor(cfg, p.state, p.shards)
			if err != nil {
				return err
			}
			monitor, lastK = m, resumeK
			if resumeK > 0 {
				fmt.Printf("resuming at window %d\n", resumeK)
			}
		}
		var ingestErr error
		store.EachByTime(batch, func(id stability.CustomerID, r stability.Receipt) bool {
			if grid.Index(r.Time) < lastK {
				skippedLate++
				return true
			}
			if err := monitor.Ingest(id, r.Time, r.Items); err != nil {
				ingestErr = fmt.Errorf("ingest customer %d: %w", id, err)
				return false
			}
			return true
		})
		if ingestErr != nil {
			return ingestErr
		}
		if max.After(maxSeen) {
			maxSeen = max
		}
		lastMonthStart := grid.Origin().AddDate(0, grid.MonthIndex(maxSeen), 0)
		if closeK := grid.Index(lastMonthStart) - 1; closeK >= lastK {
			alerts, err := monitor.CloseThrough(closeK)
			if err != nil {
				return fmt.Errorf("close through window %d: %w", closeK, err)
			}
			emit(alerts)
			lastK = closeK + 1
		}
		return nil
	}

	fmt.Printf("following %s (poll %v); SIGTERM to stop\n", p.data, p.poll)
	for running := true; running; {
		batch, err := fol.Poll()
		if err != nil {
			return err
		}
		if batch != nil {
			if err := ingestBatch(batch); err != nil {
				return err
			}
		}
		select {
		case <-sig:
			running = false
		case <-tick.C:
		}
	}

	if monitor == nil {
		fmt.Println("stopped before any data arrived")
		return nil
	}
	final, err := monitor.Close()
	if err != nil {
		return fmt.Errorf("monitor close: %w", err)
	}
	emit(final)
	if p.state != "" {
		if err := saveMonitorState(p.state, monitor); err != nil {
			return err
		}
		fmt.Printf("state saved to %s (watermark window %d)\n", p.state, lastK)
	}
	if skippedLate > 0 {
		fmt.Fprintf(os.Stderr, "warning: %d receipts arrived for already-closed windows and were dropped\n", skippedLate)
	}
	fmt.Printf("\n%d alerts over %d customers (%d shards, %d shown, %d segments read)\n",
		total, monitor.Customers(), monitor.Shards(), shown, fol.Segments())
	return nil
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
