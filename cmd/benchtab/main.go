// Command benchtab regenerates every table and figure of the paper's
// evaluation section as text, in the order they appear in the paper.
//
// Usage:
//
//	benchtab [-scale small|default|full] [-seed N] [-workers N] [-alpha-sweep]
//	         [-gt-only] [-policy FILE] [-scenario SPEC.json] [-telemetry]
//	         [-pprof ADDR]
//
// The default scale matches EXPERIMENTS.md (300 taxis, 75 regions); -scale
// full runs the paper's 20,130-taxi fleet and takes hours.
//
// -scenario conditions the gt-only run on a fault schedule, or (in full
// mode) appends a scenario-delta table re-evaluating every trained method
// under it. -telemetry collects fleet-wide counters (dumped to stderr every
// 30s and on exit); it never changes results. -pprof serves
// net/http/pprof for live profiling.
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"time"

	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchtab:", err)
		os.Exit(1)
	}
}

func run() error {
	scale := flag.String("scale", "default", "experiment scale: small, default, or full")
	seed := flag.Int64("seed", 42, "master random seed")
	sweep := flag.Bool("alpha-sweep", true, "run the Table IV alpha sweep (adds six training runs)")
	gtOnly := flag.Bool("gt-only", false, "only run ground truth and print the data-driven findings (Figs. 3-8)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"worker goroutines for training and evaluation; any value produces identical output")
	policyPath := flag.String("policy", "",
		"warm-start FairMove from a saved checkpoint instead of training it (see fairmove train -save-policy)")
	scenarioPath := flag.String("scenario", "",
		"JSON scenario spec: conditions the gt-only run, or adds a scenario-delta table to the full report")
	telemetryOn := flag.Bool("telemetry", false,
		"collect fleet-wide metrics; dumped to stderr every 30s and on exit (never changes results)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	flag.Parse()

	var sc report.Scale
	switch *scale {
	case "small":
		sc = report.ScaleSmall
	case "default":
		sc = report.ScaleDefault
	case "full":
		sc = report.ScaleFull
	default:
		return fmt.Errorf("unknown scale %q", *scale)
	}
	cfg := report.DefaultConfig(*seed, sc)
	cfg.Workers = *workers
	cfg.PolicyPath = *policyPath

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "benchtab: pprof:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on http://%s/debug/pprof/\n", *pprofAddr)
	}
	var reg *telemetry.Registry
	if *telemetryOn {
		reg = telemetry.NewRegistry()
		cfg = cfg.WithTelemetry(reg)
		stop := reg.DumpEvery(30*time.Second, os.Stderr)
		defer func() {
			stop()
			fmt.Fprint(os.Stderr, "--- final telemetry ---\n"+reg.Snapshot().Text())
		}()
	}
	var spec *scenario.Spec
	if *scenarioPath != "" {
		var err error
		if spec, err = scenario.Load(*scenarioPath); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scenario %q: %d events\n", spec.Name, len(spec.Events))
	}

	start := time.Now()
	if *gtOnly {
		cfg.Scenario = spec
		b, err := report.RunGTOnly(cfg)
		if err != nil {
			return err
		}
		fmt.Println(b.Fig3())
		fmt.Println(b.Fig4())
		fmt.Println(b.Fig5())
		fmt.Println(b.Fig6())
		fmt.Println(b.Fig7())
		fmt.Println(b.Fig8())
		if s := b.FormatTelemetry(); s != "" {
			fmt.Println(s)
		}
		fmt.Printf("elapsed: %v\n", time.Since(start).Round(time.Second))
		return nil
	}

	var alphas []float64
	if *sweep {
		alphas = []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0}
	}
	b, err := report.RunFull(cfg, alphas)
	if err != nil {
		return err
	}
	fmt.Println(b.FormatAll())
	if spec != nil {
		if err := b.RunScenarios([]*scenario.Spec{spec}); err != nil {
			return err
		}
		fmt.Println(b.FormatScenarioDeltas())
	}
	if s := b.FormatTelemetry(); s != "" {
		fmt.Println(s)
	}
	fmt.Printf("elapsed: %v\n", time.Since(start).Round(time.Second))
	return nil
}
