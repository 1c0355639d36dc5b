// Command figures regenerates every table and figure of the paper's
// evaluation section, writing ASCII renderings and CSV data under an
// output directory.
//
// Usage:
//
//	figures [-scale quick|paper] [-only fig2,fig7,telemetry] [-out out]
//	        [-seed 42] [-workers 0] [-warm]
//
// At -scale quick (the default) each figure takes seconds to minutes and
// preserves the paper's qualitative shape; -scale paper runs the full
// §III-D protocol (7000-point pools, 500 labels, 10 repetitions) and can
// take hours for the complete set.
//
// Learning-curve figures drain their whole (problem × strategy ×
// repetition) grid through the campaign engine; -workers bounds its
// worker pool (0 = GOMAXPROCS). -warm refits the surrogate incrementally
// between iterations and serves checkpoint evaluations from the forest's
// prediction cache (a different — faster — variant of Algorithm 1, not
// the paper's cold refit).
//
// -fleet drains the campaigns through evald workers instead of the
// in-process pool — the curves are bit-identical either way (see the
// fleet-equivalence gate). -fleet serve=host:port serves an in-process
// coordinator on that address (start workers with `evald -coordinator
// host:port`); -fleet URL or host:port uses a resident fleetd instead:
// fleetd journals every completed cell, so a coordinator or figures
// restart mid-grid resumes the surviving job (same seed → same
// deterministic job ID) without re-evaluating finished cells.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/bench"
	"repro/internal/cli"
	"repro/internal/experiment"
	"repro/internal/figures"
	"repro/internal/fleet"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	scale := flag.String("scale", "quick", "experiment scale: quick or paper")
	only := flag.String("only", "", "comma-separated subset (table1..table4, fig2..fig9, telemetry); empty = all")
	outDir := flag.String("out", "out", "output directory")
	seed := flag.Uint64("seed", 42, "root seed")
	workers := flag.Int("workers", 0, "campaign worker pool size; 0 = GOMAXPROCS")
	warm := flag.Bool("warm", false, "refit the surrogate incrementally and cache checkpoint evaluations")
	fleetTarget := flag.String("fleet", "", "drain campaigns through evald workers: serve=HOST:PORT serves a coordinator,\na URL or host:port uses a resident fleetd")
	flag.Parse()

	if err := cli.NonNegativeInt("-workers", *workers); err != nil {
		cli.Fatalf("%v", err)
	}

	var sc experiment.Scale
	var appScale *experiment.Scale
	switch *scale {
	case "quick":
		sc = experiment.Quick()
		app := experiment.QuickApp()
		appScale = &app
	case "paper":
		sc = experiment.Paper()
	default:
		fmt.Fprintf(os.Stderr, "figures: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	sc.Workers = *workers
	sc.WarmUpdate = *warm
	if appScale != nil {
		appScale.Workers = *workers
		appScale.WarmUpdate = *warm
	}

	want := map[string]bool{}
	if *only != "" {
		for _, name := range strings.Split(*only, ",") {
			want[strings.TrimSpace(name)] = true
		}
	}
	selected := func(name string) bool { return len(want) == 0 || want[name] }

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}

	gen := figures.Generator{
		Ctx:      ctx,
		Scale:    sc,
		Seed:     *seed,
		OutDir:   *outDir,
		Stdout:   os.Stdout,
		Kernels:  bench.Kernels(),
		Apps:     bench.Applications(),
		AppScale: appScale,
		Workers:  *workers,
	}

	if *fleetTarget != "" {
		sub, closeFleet, err := fleet.Dial(*fleetTarget, log.New(os.Stderr, "figures: ", log.LstdFlags).Printf)
		if err != nil {
			cli.Fatalf("%v", err)
		}
		defer closeFleet()
		gen.Fleet = sub
	}

	artifacts := []struct {
		name string
		run  func() error
	}{
		{"table1", gen.Table1},
		{"table2", gen.Table2},
		{"table3", gen.Table3},
		{"table4", gen.Table4},
		{"fig2", gen.Fig2},
		{"fig3", gen.Fig3},
		{"fig4", gen.Fig4},
		{"fig5", gen.Fig5},
		{"fig6", gen.Fig6},
		{"fig7", gen.Fig7},
		{"fig8", gen.Fig8},
		{"fig9", gen.Fig9},
		{"telemetry", gen.Telemetry},
	}
	for _, a := range artifacts {
		if !selected(a.name) {
			continue
		}
		fmt.Printf("==> generating %s\n", a.name)
		if err := a.run(); err != nil {
			fatal(fmt.Errorf("%s: %w", a.name, err))
		}
	}
	fmt.Printf("done; artifacts in %s\n", filepath.Clean(*outDir))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(cli.ExitCode(err))
}
