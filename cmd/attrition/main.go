// Command attrition is the end-user CLI of the stability library: generate
// datasets, inspect them, analyze individual customers, explain stability
// drops, and evaluate detection quality.
//
// Usage:
//
//	attrition gen      -out receipts.csv [-labels labels.csv] [-catalog catalog.csv] [-customers N] [-seed S]
//	attrition stats    -data receipts.csv
//	attrition analyze  -data receipts.csv -customer ID [-span 2] [-alpha 2]
//	attrition explain  -data receipts.csv -customer ID [-span 2] [-alpha 2] [-top 3] [-min-drop 0.05]
//	attrition evaluate -data receipts.csv -labels labels.csv [-span 2] [-alpha 2] [-month M]
//	attrition monitor  -data receipts.csv [-state mon.smn] [-follow -poll 2s] [-retention N]
//	attrition compact  -data receipts.stb [-evict-before YYYY-MM-DD]
package main

import (
	"fmt"
	"os"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "explain":
		err = cmdExplain(os.Args[2:])
	case "evaluate":
		err = cmdEvaluate(os.Args[2:])
	case "monitor":
		err = cmdMonitor(os.Args[2:])
	case "compact":
		err = cmdCompact(os.Args[2:])
	case "segments":
		err = cmdSegments(os.Args[2:])
	case "help", "-h", "-help", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "attrition: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "attrition:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `attrition — individual-level customer attrition analysis (stability model)

subcommands:
  gen       generate a synthetic labelled dataset (CSV receipts + labels + catalog)
  stats     summarize a receipt dataset
  analyze   print one customer's stability trace
  explain   print one customer's stability drops and the blamed products
  evaluate  AUROC of defection detection against labels, per window
  monitor   replay a dataset as a live feed and print attrition alerts
            (-follow tails a growing snapshot file with attritiond's follow
            pipeline, resyncing after a compaction, until SIGTERM)
  compact   rewrite a snapshot's appended segment chain as one segment,
            optionally evicting receipts older than a cutoff
  segments  rank gateway segments (whose loss explains defection) population-wide

run 'attrition <subcommand> -h' for flags.
`)
}
