// Command mdxq runs MDX queries against the synthetic DiScRi warehouse,
// either from the command line or as a small REPL on stdin.
//
// Usage:
//
//	mdxq [-patients N] [-chart] ['SELECT ... FROM [MedicalMeasures] ...']
//
// Without a query argument, mdxq reads one query per line from stdin.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/ddgms/ddgms/internal/core"
	"github.com/ddgms/ddgms/internal/discri"
	"github.com/ddgms/ddgms/internal/viz"
)

func main() {
	patients := flag.Int("patients", 900, "synthetic cohort size")
	chart := flag.Bool("chart", false, "render results as grouped bar charts instead of crosstabs")
	flag.Parse()

	dcfg := discri.DefaultConfig()
	dcfg.Patients = *patients
	p, err := core.NewDiScRiPlatform(core.Config{}, dcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdxq:", err)
		os.Exit(1)
	}
	defer p.Close()

	runOne := func(src string) {
		cs, err := p.QueryMDXCtx(context.Background(), src)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mdxq:", err)
			return
		}
		if *chart {
			err = viz.GroupedBarChart(os.Stdout, "", cs)
		} else {
			err = viz.CrossTab(os.Stdout, "", cs)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mdxq:", err)
		}
	}

	if flag.NArg() > 0 {
		runOne(strings.Join(flag.Args(), " "))
		return
	}
	fmt.Fprintln(os.Stderr, "mdxq: reading queries from stdin (one per line); measures: Attendances, PatientCount, AvgFBG, AvgSBP, AvgRRVar")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		runOne(line)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "mdxq:", err)
		os.Exit(1)
	}
}
