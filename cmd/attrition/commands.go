package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/gautrais/stability"
	"github.com/gautrais/stability/internal/faultfs"
	"github.com/gautrais/stability/internal/population"
	"github.com/gautrais/stability/internal/report"
)

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	var (
		out       = fs.String("out", "receipts.csv", "receipt output path (.csv, .jsonl, or .stb/.bin binary snapshot)")
		labelsOut = fs.String("labels", "", "labels CSV output path (optional)")
		catOut    = fs.String("catalog", "", "catalog CSV output path (optional)")
		customers = fs.Int("customers", 0, "population size (0 = default)")
		seed      = fs.Int64("seed", 0, "dataset seed (0 = default)")
		months    = fs.Int("months", 0, "dataset length in months (0 = default 28); with -extend, the length of the existing base dataset")
		extend    = fs.Int("extend", 0, "append N months to the existing dataset at -out instead of regenerating it: the base is re-derived from the same flags, the simulation resumes past its horizon, and only the new receipts are appended to the file")
		workers   = fs.Int("workers", 0, "generation worker pool size (0 = all CPUs; output is identical for any value)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := stability.DefaultSampleConfig()
	if *customers > 0 {
		cfg.Customers = *customers
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *months > 0 {
		cfg.Months = *months
		if cfg.OnsetMonth >= cfg.Months {
			cfg.OnsetMonth = cfg.Months * 2 / 3
			if cfg.OnsetMonth < 1 {
				cfg.OnsetMonth = 1
			}
		}
	}
	ds, err := stability.GenerateSampleWith(cfg, stability.SampleOptions{Workers: *workers})
	if err != nil {
		return err
	}
	if *extend > 0 {
		if err := extendFile(*out, ds, *extend, *workers); err != nil {
			return err
		}
		fmt.Printf("extended %s by %d months (now %d months, %d customers, %d receipts)\n",
			*out, *extend, ds.Config.Months, ds.Store.NumCustomers(), ds.Store.NumReceipts())
	} else {
		if err := writeTo(*out, func(f *os.File) error { return writeStore(f, *out, ds.Store) }); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d customers, %d receipts)\n", *out, ds.Store.NumCustomers(), ds.Store.NumReceipts())
	}
	if *labelsOut != "" {
		if err := writeTo(*labelsOut, func(f *os.File) error {
			return stability.WriteLabelsCSV(f, ds.Truth.Labels())
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *labelsOut)
	}
	if *catOut != "" {
		if err := writeTo(*catOut, func(f *os.File) error { return stability.WriteCatalogCSV(f, ds.Catalog) }); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *catOut)
	}
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	data := fs.String("data", "", "receipt CSV path (required)")
	top := fs.Int("top", 10, "top-N items to list")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := loadStore(*data)
	if err != nil {
		return err
	}
	st.Summarize(*top).Render(os.Stdout)
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	var (
		data     = fs.String("data", "", "receipt CSV path (required)")
		customer = fs.Uint64("customer", 0, "customer id (required)")
		span     = fs.Int("span", 2, "window span in months")
		alpha    = fs.Float64("alpha", 2, "significance base α")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	series, _, grid, err := analyzeOne(*data, *customer, *span, *alpha)
	if err != nil {
		return err
	}
	t := report.NewTable("window", "months", "stability", "missing_items", "new_items")
	for _, p := range series.Points {
		start, end := grid.Bounds(p.GridIndex)
		t.AddRow(p.GridIndex,
			fmt.Sprintf("%s..%s", start.Format("2006-01"), end.AddDate(0, 0, -1).Format("2006-01")),
			p.Stability, len(p.Missing), len(p.NewItems))
	}
	t.Render(os.Stdout)
	return nil
}

func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	var (
		data     = fs.String("data", "", "receipt CSV path (required)")
		customer = fs.Uint64("customer", 0, "customer id (required)")
		span     = fs.Int("span", 2, "window span in months")
		alpha    = fs.Float64("alpha", 2, "significance base α")
		topJ     = fs.Int("top", 3, "blamed products per drop")
		minDrop  = fs.Float64("min-drop", 0.05, "minimum stability decrease to report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	series, _, grid, err := analyzeOne(*data, *customer, *span, *alpha)
	if err != nil {
		return err
	}
	drops := series.Drops(*minDrop, *topJ)
	if len(drops) == 0 {
		fmt.Printf("customer %d: no stability drop >= %.2f — looks loyal\n", *customer, *minDrop)
		return nil
	}
	for _, d := range drops {
		start, end := grid.Bounds(d.GridIndex)
		fmt.Printf("window %d (%s..%s): stability %.3f -> %.3f\n",
			d.GridIndex, start.Format("2006-01-02"), end.AddDate(0, 0, -1).Format("2006-01-02"), d.From, d.To)
		for _, b := range d.Blame {
			fmt.Printf("    missing item %-8d significance exponent %+d  share %.3f\n", b.Item, b.Net, b.Share)
		}
	}
	return nil
}

func cmdEvaluate(args []string) error {
	fs := flag.NewFlagSet("evaluate", flag.ExitOnError)
	var (
		data    = fs.String("data", "", "receipt CSV path (required)")
		labels  = fs.String("labels", "", "labels CSV path (required)")
		span    = fs.Int("span", 2, "window span in months")
		alpha   = fs.Float64("alpha", 2, "significance base α")
		workers = fs.Int("workers", 0, "scoring worker pool size (0 = all CPUs)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	st, err := loadStore(*data)
	if err != nil {
		return err
	}
	lf, err := os.Open(*labels)
	if err != nil {
		return err
	}
	defer lf.Close()
	labelRecs, err := stability.ReadLabelsCSV(lf)
	if err != nil {
		return err
	}
	labelOf := make(map[stability.CustomerID]stability.Cohort, len(labelRecs))
	for _, l := range labelRecs {
		labelOf[l.Customer] = l.Cohort
	}

	min, max, ok := st.TimeRange()
	if !ok {
		return fmt.Errorf("dataset is empty")
	}
	grid, err := stability.NewGrid(min, *span)
	if err != nil {
		return err
	}
	lastK := grid.Index(max)
	model, err := stability.NewModel(stability.Options{Alpha: *alpha})
	if err != nil {
		return err
	}

	// Score every labelled customer at every window on the population
	// engine; the per-window fold below runs in input (id) order, so the
	// table is identical at every worker count.
	var (
		histories []stability.History
		cohorts   []stability.Cohort
	)
	ids := st.Customers()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		cohort, ok := labelOf[id]
		if !ok || cohort == stability.CohortUnknown {
			continue
		}
		h, err := st.History(id)
		if err != nil {
			return err
		}
		histories = append(histories, h)
		cohorts = append(cohorts, cohort)
	}
	// Stability-only engine path: the AUROC fold below never reads blame
	// or new-item lists, so skip building them.
	allSeries, err := population.AnalyzeStability(model, histories, grid, lastK,
		population.Options{Workers: *workers})
	if err != nil {
		return err
	}
	type row struct {
		scores []float64
		isDef  []bool
	}
	perWindow := make([]row, lastK+1)
	for i, series := range allSeries {
		for k := 0; k <= lastK; k++ {
			s := 1.0
			if v, ok := series.StabilityAt(k); ok {
				s = v
			}
			perWindow[k].scores = append(perWindow[k].scores, 1-s)
			perWindow[k].isDef = append(perWindow[k].isDef, cohorts[i] == stability.CohortDefecting)
		}
	}

	t := report.NewTable("window", "end_month", "auroc", "n")
	for k := 0; k <= lastK; k++ {
		auc, err := stability.AUROC(perWindow[k].scores, perWindow[k].isDef)
		cell := "-"
		if err == nil {
			cell = fmt.Sprintf("%.4f", auc)
		}
		t.AddRow(k, (k+1)*(*span), cell, len(perWindow[k].scores))
	}
	t.Render(os.Stdout)
	return nil
}

func analyzeOne(path string, customer uint64, span int, alpha float64) (stability.Series, *stability.Store, stability.Grid, error) {
	st, err := loadStore(path)
	if err != nil {
		return stability.Series{}, nil, stability.Grid{}, err
	}
	min, max, ok := st.TimeRange()
	if !ok {
		return stability.Series{}, nil, stability.Grid{}, fmt.Errorf("dataset is empty")
	}
	grid, err := stability.NewGrid(min, span)
	if err != nil {
		return stability.Series{}, nil, stability.Grid{}, err
	}
	h, err := st.History(stability.CustomerID(customer))
	if err != nil {
		return stability.Series{}, nil, stability.Grid{}, err
	}
	model, err := stability.NewModel(stability.Options{Alpha: alpha})
	if err != nil {
		return stability.Series{}, nil, stability.Grid{}, err
	}
	series, err := stability.AnalyzeHistory(model, h, grid, grid.Index(max))
	if err != nil {
		return stability.Series{}, nil, stability.Grid{}, err
	}
	return series, st, grid, nil
}

func loadStore(path string) (*stability.Store, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -data flag")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sf := stability.ReceiptFormatForPath(path)
	if sf.Name == "csv" {
		// CLI affordance for hand-edited files: lenient CSV read with a
		// skipped-rows warning instead of the table's strict reader.
		st, rep, err := stability.ReadReceiptsCSV(f, false)
		if err != nil {
			return nil, err
		}
		if rep.Skipped > 0 {
			fmt.Fprintf(os.Stderr, "warning: skipped %d malformed rows\n", rep.Skipped)
		}
		return st, nil
	}
	return sf.Read(f)
}

func writeTo(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeStore serializes a full store in the format the path's suffix
// names (.jsonl, .stb/.bin, else CSV) — the same dispatch loadStore uses.
func writeStore(f *os.File, path string, st *stability.Store) error {
	return stability.ReceiptFormatForPath(path).Write(f, st)
}

// extendFile grows an existing dataset file in place: ds must be the
// regenerated base dataset for the command's flags. The file may already
// have been extended past the base horizon — extension is bit-identical to
// regeneration, so GrowSample fast-forwards ds to the file's current
// length, verifies the file against it, then extends by the requested
// months; only the receipts beyond the file's current end are appended.
func extendFile(path string, ds *stability.SampleDataset, months, workers int) error {
	onDisk, err := loadStore(path)
	if err != nil {
		return fmt.Errorf("-extend: read existing dataset: %w", err)
	}
	prev, err := stability.GrowSample(ds, onDisk, months, stability.SampleOptions{Workers: workers})
	if err != nil {
		return fmt.Errorf("-extend: %s: %w", path, err)
	}
	return appendDeltaTo(path, ds.Store, prev)
}

// appendDeltaTo appends cur's receipts beyond prev to an existing dataset
// file, never rewriting the bytes already there. The format follows the
// path suffix, exactly as writeStore. A failed append (disk full, codec
// error) truncates the file back to its original size, so the dataset is
// never left with a half-written trailing segment.
func appendDeltaTo(path string, cur, prev *stability.Store) error {
	return faultfs.AppendOrRestore(faultfs.OS{}, path, func(w io.Writer) error {
		return stability.ReceiptFormatForPath(path).WriteDelta(w, cur, prev)
	})
}
