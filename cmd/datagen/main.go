// Command datagen generates synthetic retail-transaction datasets in every
// supported format, for use outside this repository (plotting, other
// implementations, benchmarks).
//
// Usage:
//
//	datagen -out DIR [-customers N] [-seed S] [-months M] [-segments K] \
//	        [-formats csv,jsonl,bin] [-workers W]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/gautrais/stability"
	"github.com/gautrais/stability/internal/faultfs"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "datagen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ContinueOnError)
	var (
		outDir    = fs.String("out", "dataset", "output directory")
		customers = fs.Int("customers", 0, "population size (0 = default)")
		seed      = fs.Int64("seed", 0, "dataset seed (0 = default)")
		months    = fs.Int("months", 0, "dataset length in months (0 = default); with -extend, the length of the existing base dataset")
		onset     = fs.Int("onset", 0, "attrition onset month (0 = default/auto)")
		segments  = fs.Int("segments", 0, "catalog segments (0 = default)")
		formats   = fs.String("formats", "csv", "comma-separated: csv,jsonl,bin")
		extend    = fs.Int("extend", 0, "append N months to the existing dataset in -out: the base is regenerated from the same flags, the simulation resumes past its horizon, and only the new receipts are appended to each format file")
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
		if *onset == 0 && cfg.OnsetMonth >= cfg.Months {
			// Shortened horizon: keep the onset at two thirds of it, like
			// the paper's 18-of-28.
			cfg.OnsetMonth = cfg.Months * 2 / 3
			if cfg.OnsetMonth < 1 {
				cfg.OnsetMonth = 1
			}
		}
	}
	if *onset > 0 {
		cfg.OnsetMonth = *onset
	}
	if *segments > 0 {
		cfg.Segments = *segments
	}
	// wanted resolves the -formats list against the shared codec table,
	// deduplicated: a repeated name must not write (or, worse, delta-append)
	// the same file twice.
	var wanted []stability.ReceiptFormat
	seen := make(map[string]bool)
	for _, format := range strings.Split(*formats, ",") {
		name := strings.TrimSpace(format)
		if name == "" || seen[name] {
			continue
		}
		sf, ok := stability.ReceiptFormatNamed(name)
		if !ok {
			return fmt.Errorf("unknown format %q", name)
		}
		seen[name] = true
		wanted = append(wanted, sf)
	}

	ds, err := stability.GenerateSampleWith(cfg, stability.SampleOptions{Workers: *workers})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		return err
	}
	var prev *stability.Store
	if *extend > 0 {
		if len(wanted) == 0 {
			return fmt.Errorf("-extend needs at least one format")
		}
		// Verify every requested file really is the dataset these flags
		// regenerate before appending a single byte: GrowSample
		// fast-forwards the base to the files' current length and checks
		// population, receipt count and time range. Re-running the same
		// -extend command is therefore a no-op-safe error (the files are
		// already longer than base+extend would allow duplicating), and a
		// wrong -seed/-months is rejected instead of corrupting the files.
		stores := make([]*stability.Store, len(wanted))
		for i, sf := range wanted {
			path := filepath.Join(*outDir, sf.File)
			f, err := os.Open(path)
			if err != nil {
				return fmt.Errorf("%s: -extend needs the base file to append to: %w", sf.File, err)
			}
			st, err := sf.Read(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", sf.File, err)
			}
			stores[i] = st
			if st.NumReceipts() != stores[0].NumReceipts() || st.NumCustomers() != stores[0].NumCustomers() {
				return fmt.Errorf("%s and %s disagree (%d/%d vs %d/%d receipts/customers) — extend them from a consistent state",
					wanted[0].File, sf.File, stores[0].NumReceipts(), stores[0].NumCustomers(), st.NumReceipts(), st.NumCustomers())
			}
			// CSV stores whole seconds while JSONL keeps nanoseconds, so
			// compare the ranges at the coarsest codec resolution.
			aMin, aMax, aOK := stores[0].TimeRange()
			bMin, bMax, bOK := st.TimeRange()
			if aOK != bOK || (aOK && (!aMin.Truncate(time.Second).Equal(bMin.Truncate(time.Second)) ||
				!aMax.Truncate(time.Second).Equal(bMax.Truncate(time.Second)))) {
				return fmt.Errorf("%s and %s disagree on the covered time range — extend them from a consistent state",
					wanted[0].File, sf.File)
			}
		}
		prev, err = stability.GrowSample(ds, stores[0], *extend, stability.SampleOptions{Workers: *workers})
		if err != nil {
			return fmt.Errorf("-extend: %s: %w", wanted[0].File, err)
		}
	}

	// A failed append (disk full, codec error) restores the original size,
	// so the file never keeps a half-written trailing segment.
	appendDelta := func(name string, fn func(io.Writer) error) error {
		path := filepath.Join(*outDir, name)
		err := faultfs.AppendOrRestore(faultfs.OS{}, path, func(w io.Writer) error {
			if err := fn(w); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			return nil
		})
		if err != nil {
			return err
		}
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		fmt.Printf("extended %s (now %d bytes)\n", path, info.Size())
		return nil
	}

	write := func(name string, fn func(*os.File) error) error {
		path := filepath.Join(*outDir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		info, err := os.Stat(path)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d bytes)\n", path, info.Size())
		return nil
	}

	for _, sf := range wanted {
		if prev != nil {
			err = appendDelta(sf.File, func(w io.Writer) error { return sf.WriteDelta(w, ds.Store, prev) })
		} else {
			err = write(sf.File, func(f *os.File) error { return sf.Write(f, ds.Store) })
		}
		if err != nil {
			return err
		}
	}
	if err := write("labels.csv", func(f *os.File) error {
		return stability.WriteLabelsCSV(f, ds.Truth.Labels())
	}); err != nil {
		return err
	}
	if err := write("catalog.csv", func(f *os.File) error {
		return stability.WriteCatalogCSV(f, ds.Catalog)
	}); err != nil {
		return err
	}
	fmt.Printf("dataset: %d customers, %d receipts, %d segments, %d months\n",
		ds.Store.NumCustomers(), ds.Store.NumReceipts(), ds.Config.Segments, ds.Config.Months)
	return nil
}
