// Command dynagg-experiments regenerates the figures of "Aggregate
// Estimation Over Dynamic Hidden Web Databases" (VLDB 2014) against the
// simulated substrate.
//
// Usage:
//
//	dynagg-experiments -list
//	dynagg-experiments -fig fig2
//	dynagg-experiments -all
//	DYNAGG_FULL_SCALE=1 dynagg-experiments -fig fig12   # paper-scale run
//
// Output is an aligned text table per figure: the same x values and series
// the paper plots.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/dynagg/dynagg/internal/experiments"
)

func main() {
	var (
		fig       = flag.String("fig", "", "figure ID to regenerate (e.g. fig2)")
		all       = flag.Bool("all", false, "regenerate every figure")
		list      = flag.Bool("list", false, "list available figure IDs")
		seed      = flag.Int64("seed", 1, "random seed")
		trials    = flag.Int("trials", 0, "trials to average over (0 = figure default)")
		fullScale = flag.Bool("full", false, "use the paper's full-scale parameters")
		csvDir    = flag.String("csv", "", "also write <dir>/<fig>.csv for plotting")
		workers   = flag.Int("workers", 0, "concurrent trial workers (0 = DYNAGG_WORKERS env or one per core); output is identical for every value")
	)
	flag.Parse()
	writeCSV = *csvDir

	opt := experiments.DefaultOptions()
	opt.Seed = *seed
	opt.Trials = *trials
	if *fullScale {
		opt.FullScale = true
	}
	if *workers > 0 {
		opt.Workers = *workers
	}

	switch {
	case *list:
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
	case *all:
		for _, id := range experiments.IDs() {
			if err := run(id, opt); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", id, err)
				os.Exit(1)
			}
		}
	case *fig != "":
		if err := run(*fig, opt); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", *fig, err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// writeCSV, when non-empty, is the directory CSV copies are written to.
var writeCSV string

func run(id string, opt experiments.Options) error {
	start := time.Now()
	f, err := experiments.Run(id, opt)
	if err != nil {
		return err
	}
	f.Write(os.Stdout)
	fmt.Printf("  (%s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	if writeCSV != "" {
		if err := os.MkdirAll(writeCSV, 0o755); err != nil {
			return err
		}
		path := filepath.Join(writeCSV, id+".csv")
		out, err := os.Create(path)
		if err != nil {
			return err
		}
		defer out.Close()
		if err := f.WriteCSV(out); err != nil {
			return err
		}
		fmt.Printf("  (csv written to %s)\n", path)
	}
	return nil
}
